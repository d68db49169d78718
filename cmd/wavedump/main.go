// Command wavedump regenerates the paper's Figure 7 — the timing diagram of
// a translated coprocessor read access — as an ASCII waveform on stdout
// and, optionally, a VCD file for a waveform viewer.
//
// Usage:
//
//	wavedump                 # ASCII waveform
//	wavedump -vcd fig7.vcd   # also write VCD
//	wavedump -pipelined      # the 1-cycle pipelined IMU variant
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"repro/internal/exp"
	"repro/internal/imu"
)

func main() {
	vcdPath := flag.String("vcd", "", "write a VCD file to this path")
	pipelined := flag.Bool("pipelined", false, "use the pipelined IMU")
	flag.Parse()

	mode := imu.MultiCycle
	if *pipelined {
		mode = imu.Pipelined
	}
	b, err := exp.RunFig7Bench(mode)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("translated read access (%s IMU), one column per %s cycle:\n\n",
		mode, "40 MHz")
	fmt.Print(b.Rec.RenderASCII(0, b.LastEdge))
	fmt.Printf("\nread data: %#x\n", b.Data)

	if *vcdPath != "" {
		f, err := os.Create(*vcdPath)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		if err := b.Rec.WriteVCD(f, "imu_fig7"); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("VCD written to %s\n", *vcdPath)
	}
}
