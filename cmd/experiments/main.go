// Command experiments regenerates every figure and table of the paper's
// evaluation (plus the repository's ablations, the sessions experiment and
// the SERVE scheduling experiment) on the simulated platform and prints
// them to stdout.
//
// Experiments are deterministic and independent, so they are farmed out
// across GOMAXPROCS workers by default; output is buffered and printed in
// presentation order, so the rendered report is byte-identical to a serial
// run.
//
// Usage:
//
//	experiments             # run everything, in parallel
//	experiments -parallel 1 # run everything, serially
//	experiments -run FIG8   # run one experiment by id
//	experiments -list       # list experiment ids
//	experiments -cpuprofile cpu.out # host CPU profile of the run (go tool pprof)
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"

	"repro/internal/exp"
)

func main() {
	runID := flag.String("run", "", "run a single experiment by id (e.g. FIG9)")
	list := flag.Bool("list", false, "list experiment ids and exit")
	parallel := flag.Int("parallel", runtime.GOMAXPROCS(0), "experiments run concurrently (1 = serial)")
	cpuprofile := flag.String("cpuprofile", "", "write a host CPU profile of the whole run to this path (go tool pprof)")
	flag.Parse()

	code, err := profiled(*cpuprofile, func() (int, error) { return execute(*runID, *list, *parallel) })
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		code = 1
	}
	os.Exit(code)
}

// execute runs the selected experiments, printing their reports to stdout
// and their failures to stderr, and returns the process exit code.
func execute(runID string, list bool, parallel int) (int, error) {
	if list {
		for _, e := range exp.All() {
			fmt.Printf("%-10s %s\n", e.ID, e.Title)
		}
		return 0, nil
	}

	if runID != "" {
		e, ok := exp.ByID(runID)
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown experiment %q; use -list\n", runID)
			return 2, nil
		}
		res, err := e.Run()
		if err != nil {
			return 1, fmt.Errorf("%s: %v", e.ID, err)
		}
		fmt.Println(exp.Render(res))
		return 0, nil
	}

	// Fan the cells out: every experiment runs in its own goroutine behind
	// a worker-count semaphore, results are delivered through per-slot
	// channels, and the printer drains them in presentation order.
	all := exp.All()
	parallel = max(parallel, 1)
	type outcome struct {
		text string
		err  error
	}
	results := make([]chan outcome, len(all))
	sem := make(chan struct{}, parallel)
	for i, e := range all {
		results[i] = make(chan outcome, 1)
		go func(out chan<- outcome, e exp.Experiment) {
			sem <- struct{}{}
			defer func() { <-sem }()
			res, err := e.Run()
			if err != nil {
				out <- outcome{err: err}
				return
			}
			out <- outcome{text: exp.Render(res)}
		}(results[i], e)
	}
	code := 0
	for i, e := range all {
		o := <-results[i]
		if o.err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", e.ID, o.err)
			code = 1
			continue
		}
		fmt.Println(o.text)
	}
	return code, nil
}

// profiled runs f under a host CPU profile written to path (pprof's
// gzip-framed format; none when path is empty) and stops the profile
// before returning f's results.
func profiled(path string, f func() (int, error)) (int, error) {
	if path == "" {
		return f()
	}
	out, err := os.Create(path)
	if err != nil {
		return 0, err
	}
	if err := pprof.StartCPUProfile(out); err != nil {
		out.Close()
		return 0, err
	}
	code, err := f()
	pprof.StopCPUProfile()
	if cerr := out.Close(); err == nil {
		err = cerr
	}
	return code, err
}
