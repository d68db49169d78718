package exp

import (
	"fmt"

	"repro"
	"repro/internal/platform"
	"repro/internal/stats"
)

// RunOverhead derives the §4.1 overhead claims from fresh runs: the SW(IMU)
// share of total time (paper: up to 2.5%) and the translation share of the
// hardware time (paper: ≈20% for IDEA, to be masked by a pipelined IMU).
func RunOverhead() (*Result, error) {
	tb := &stats.Table{
		Title:   "virtualisation overheads",
		Headers: []string{"application", "input", "SW(IMU) % of total", "translation % of HW time"},
	}
	series := map[string]float64{}

	for _, n := range []int{4096, 8192} {
		rep, err := Run(repro.Config{}, "adpcm", "vim", n, int64(n), nil)
		if err != nil {
			return nil, err
		}
		pipe, err := Run(repro.Config{PipelinedIMU: true}, "adpcm", "vim", n, int64(n), nil)
		if err != nil {
			return nil, err
		}
		imuFrac := (rep.SWIMUPs + rep.SWOSPs) / rep.TotalPs() * 100
		xlatFrac := (rep.HWPs - pipe.HWPs) / rep.HWPs * 100
		label := fmt.Sprintf("%dKB", n/1024)
		tb.AddRow("adpcmdecode", label, fmt.Sprintf("%.2f%%", imuFrac), fmt.Sprintf("%.1f%%", xlatFrac))
		series["adpcm_imu_frac/"+label] = imuFrac
		series["adpcm_xlat_frac/"+label] = xlatFrac
	}
	for _, n := range []int{8192, 16384} {
		rep, err := Run(repro.Config{}, "idea", "vim", n, int64(n), nil)
		if err != nil {
			return nil, err
		}
		pipe, err := Run(repro.Config{PipelinedIMU: true}, "idea", "vim", n, int64(n), nil)
		if err != nil {
			return nil, err
		}
		imuFrac := (rep.SWIMUPs + rep.SWOSPs) / rep.TotalPs() * 100
		xlatFrac := (rep.HWPs - pipe.HWPs) / rep.HWPs * 100
		label := fmt.Sprintf("%dKB", n/1024)
		tb.AddRow("IDEA", label, fmt.Sprintf("%.2f%%", imuFrac), fmt.Sprintf("%.1f%%", xlatFrac))
		series["idea_imu_frac/"+label] = imuFrac
		series["idea_xlat_frac/"+label] = xlatFrac
	}
	return &Result{
		ID: "OVERHEAD", Title: "Virtualisation overheads",
		Tables: []*stats.Table{tb},
		Notes: []string{
			"paper: SW(IMU) management up to 2.5% of total; IDEA translation overhead around 20% of HW time",
			"translation share measured as the HW time recovered by the pipelined IMU",
		},
		Series: series,
	}, nil
}

// RunPortability re-runs the unchanged IDEA application on the three
// devices; only the kernel module parameters (DP RAM geometry) differ.
func RunPortability() (*Result, error) {
	tb := &stats.Table{
		Title:   "IDEA 16 KB on three devices (identical app + coprocessor code)",
		Headers: []string{"device", "DP RAM", "frames", "faults", "VIM total ms", "speedup vs SW"},
	}
	series := map[string]float64{}
	for _, name := range []string{"EPXA1", "EPXA4", "EPXA10"} {
		spec, _ := platform.SpecByName(name)
		sw, err := Run(repro.Config{Board: name}, "idea", "sw", 16384, 777, nil)
		if err != nil {
			return nil, err
		}
		rep, err := Run(repro.Config{Board: name}, "idea", "vim", 16384, 777, nil)
		if err != nil {
			return nil, err
		}
		tb.AddRow(name, fmt.Sprintf("%d KB", spec.DPBytes/1024),
			fmt.Sprintf("%d", spec.DPBytes>>spec.PageLog),
			fmt.Sprintf("%d", rep.VIM.Faults), ms(rep.TotalPs()),
			fmt.Sprintf("%.1fx", sw.TotalPs()/rep.TotalPs()))
		series["faults/"+name] = float64(rep.VIM.Faults)
		series["vim_ms/"+name] = rep.TotalPs() / 1e9
	}
	return &Result{
		ID: "PORT", Title: "Portability across devices",
		Tables: []*stats.Table{tb},
		Notes: []string{
			"neither the C application nor the coprocessor HDL changes across devices (§4: only the kernel module is recompiled)",
		},
		Series: series,
	}, nil
}

// RunPolicyAblation compares replacement policies under DP RAM pressure.
func RunPolicyAblation() (*Result, error) {
	tb := &stats.Table{
		Title:   "IDEA 32 KB under each replacement policy",
		Headers: []string{"policy", "faults", "evictions", "writebacks", "VIM total ms"},
	}
	series := map[string]float64{}
	for _, pol := range []string{"fifo", "lru", "clock", "random"} {
		rep, err := Run(repro.Config{Policy: pol, Seed: 4242}, "idea", "vim", 32768, 4242, nil)
		if err != nil {
			return nil, err
		}
		tb.AddRow(pol, fmt.Sprintf("%d", rep.VIM.Faults), fmt.Sprintf("%d", rep.VIM.Evictions),
			fmt.Sprintf("%d", rep.VIM.Writebacks), ms(rep.TotalPs()))
		series["faults/"+pol] = float64(rep.VIM.Faults)
		series["total_ms/"+pol] = rep.TotalPs() / 1e9
	}
	return &Result{
		ID: "POLICY", Title: "Replacement policies",
		Tables: []*stats.Table{tb},
		Notes:  []string{"§3.3 lists FIFO, LRU and random as candidate policies; clock added as the classic Ref-bit approximation"},
		Series: series,
	}, nil
}

// RunBounceAblation quantifies the paper's double-transfer inefficiency.
func RunBounceAblation() (*Result, error) {
	tb := &stats.Table{
		Title:   "page movement: direct vs bounce-buffer (double transfer)",
		Headers: []string{"application", "input", "SW(DP) direct ms", "SW(DP) bounce ms", "total direct ms", "total bounce ms"},
	}
	series := map[string]float64{}
	for _, n := range []int{8192} {
		direct, err := Run(repro.Config{}, "adpcm", "vim", n, 21, nil)
		if err != nil {
			return nil, err
		}
		bounce, err := Run(repro.Config{BounceBuffer: true}, "adpcm", "vim", n, 21, nil)
		if err != nil {
			return nil, err
		}
		tb.AddRow("adpcmdecode", fmt.Sprintf("%dKB", n/1024),
			ms(direct.SWDPPs), ms(bounce.SWDPPs), ms(direct.TotalPs()), ms(bounce.TotalPs()))
		series["swdp_ratio/adpcm"] = bounce.SWDPPs / direct.SWDPPs
	}
	for _, n := range []int{16384} {
		direct, err := Run(repro.Config{}, "idea", "vim", n, 22, nil)
		if err != nil {
			return nil, err
		}
		bounce, err := Run(repro.Config{BounceBuffer: true}, "idea", "vim", n, 22, nil)
		if err != nil {
			return nil, err
		}
		tb.AddRow("IDEA", fmt.Sprintf("%dKB", n/1024),
			ms(direct.SWDPPs), ms(bounce.SWDPPs), ms(direct.TotalPs()), ms(bounce.TotalPs()))
		series["swdp_ratio/idea"] = bounce.SWDPPs / direct.SWDPPs
	}
	return &Result{
		ID: "BOUNCE", Title: "Double-transfer page movement",
		Tables: []*stats.Table{tb},
		Notes: []string{
			"§4.1: the naive module \"makes two transfers each time a page is loaded or unloaded\"; the direct path is the fix the authors were working on",
		},
		Series: series,
	}, nil
}

// RunPipelineAblation compares the multi-cycle IMU with the pipelined one.
func RunPipelineAblation() (*Result, error) {
	tb := &stats.Table{
		Title:   "IMU translation micro-architecture",
		Headers: []string{"application", "input", "HW ms (multi-cycle)", "HW ms (pipelined)", "HW time saved"},
	}
	series := map[string]float64{}
	for _, n := range []int{8192} {
		multi, err := Run(repro.Config{}, "adpcm", "vim", n, 31, nil)
		if err != nil {
			return nil, err
		}
		pipe, err := Run(repro.Config{PipelinedIMU: true}, "adpcm", "vim", n, 31, nil)
		if err != nil {
			return nil, err
		}
		saved := (multi.HWPs - pipe.HWPs) / multi.HWPs * 100
		tb.AddRow("adpcmdecode", fmt.Sprintf("%dKB", n/1024), ms(multi.HWPs), ms(pipe.HWPs),
			fmt.Sprintf("%.1f%%", saved))
		series["hw_saved_pct/adpcm"] = saved
	}
	for _, n := range []int{16384} {
		multi, err := Run(repro.Config{}, "idea", "vim", n, 32, nil)
		if err != nil {
			return nil, err
		}
		pipe, err := Run(repro.Config{PipelinedIMU: true}, "idea", "vim", n, 32, nil)
		if err != nil {
			return nil, err
		}
		saved := (multi.HWPs - pipe.HWPs) / multi.HWPs * 100
		tb.AddRow("IDEA", fmt.Sprintf("%dKB", n/1024), ms(multi.HWPs), ms(pipe.HWPs),
			fmt.Sprintf("%.1f%%", saved))
		series["hw_saved_pct/idea"] = saved
	}
	return &Result{
		ID: "PIPELINE", Title: "Pipelined IMU",
		Tables: []*stats.Table{tb},
		Notes: []string{
			"§4.1/§6: the authors expected a pipelined IMU to mask almost completely the translation overhead",
		},
		Series: series,
	}, nil
}

// RunPrefetchAblation measures sequential prefetch.
func RunPrefetchAblation() (*Result, error) {
	tb := &stats.Table{
		Title:   "sequential prefetch on fault service",
		Headers: []string{"application", "input", "prefetch", "faults", "SW(IMU) ms", "total ms"},
	}
	series := map[string]float64{}
	for _, pf := range []int{0, 1, 2, 4} {
		rep, err := Run(repro.Config{PrefetchPages: pf}, "adpcm", "vim", 8192, 51, nil)
		if err != nil {
			return nil, err
		}
		tb.AddRow("adpcmdecode", "8KB", fmt.Sprintf("%d", pf),
			fmt.Sprintf("%d", rep.VIM.Faults), ms(rep.SWIMUPs+rep.SWOSPs), ms(rep.TotalPs()))
		series[fmt.Sprintf("faults/%d", pf)] = float64(rep.VIM.Faults)
		series[fmt.Sprintf("total_ms/%d", pf)] = rep.TotalPs() / 1e9
	}
	return &Result{
		ID: "PREFETCH", Title: "Sequential prefetch",
		Tables: []*stats.Table{tb},
		Notes: []string{
			"§3.3: \"speculative actions as prefetching could be used in order to avoid translation misses\"",
			"aggressive speculation thrashes: with only 8 frames, prefetching 4 pages evicts live pages and fault counts explode — the ablation shows why the paper left prefetch as future work",
		},
		Series: series,
	}, nil
}

// RunChunkAblation compares the hand-chunked baseline against the VIM on a
// dataset that exceeds the DP RAM.
func RunChunkAblation() (*Result, error) {
	const n = 32768
	chunked, err := Run(repro.Config{}, "idea", "chunked", n, 61, nil)
	if err != nil {
		return nil, err
	}
	vimRep, err := Run(repro.Config{}, "idea", "vim", n, 61, nil)
	if err != nil {
		return nil, err
	}
	tb := &stats.Table{
		Title:   fmt.Sprintf("IDEA %d KB beyond the DP RAM: hand-chunked app vs transparent VIM", n/1024),
		Headers: []string{"version", "HW ms", "SW(DP) ms", "SW(IMU) ms", "total ms"},
	}
	tb.AddRow("hand-chunked (Figure 3)", ms(chunked.HWPs), ms(chunked.SWDPPs),
		ms(chunked.SWIMUPs+chunked.SWOSPs), ms(chunked.TotalPs()))
	tb.AddRow("VIM-based", ms(vimRep.HWPs), ms(vimRep.SWDPPs),
		ms(vimRep.SWIMUPs+vimRep.SWOSPs), ms(vimRep.TotalPs()))
	return &Result{
		ID: "CHUNK", Title: "Hand-chunked baseline vs VIM",
		Tables: []*stats.Table{tb},
		Notes: []string{
			"the VIM pays a bounded transparency tax over hand-written chunking while removing every platform detail from the application",
		},
		Series: map[string]float64{
			"chunked_ms": chunked.TotalPs() / 1e9,
			"vim_ms":     vimRep.TotalPs() / 1e9,
		},
	}, nil
}

// RunPageSizeAblation sweeps the dual-port RAM page size — the one
// parameter of the §3.3 page organisation the paper fixes at 2 KB. Smaller
// pages mean more frames and finer-grained transfers but more faults and
// more OS entries; larger pages amortise fault service over bigger copies.
func RunPageSizeAblation() (*Result, error) {
	tb := &stats.Table{
		Title:   "adpcmdecode 8 KB vs dual-port RAM page size (16 KB DP RAM)",
		Headers: []string{"page size", "frames", "faults", "SW(DP) ms", "SW(IMU) ms", "total ms"},
	}
	series := map[string]float64{}
	for _, lg := range []uint{9, 10, 11, 12} {
		rep, err := Run(repro.Config{PageLog: lg}, "adpcm", "vim", 8192, 71, nil)
		if err != nil {
			return nil, err
		}
		label := fmt.Sprintf("%dB", 1<<lg)
		tb.AddRow(label, fmt.Sprintf("%d", 16*1024>>lg),
			fmt.Sprintf("%d", rep.VIM.Faults),
			ms(rep.SWDPPs), ms(rep.SWIMUPs+rep.SWOSPs), ms(rep.TotalPs()))
		series["faults/"+label] = float64(rep.VIM.Faults)
		series["total_ms/"+label] = rep.TotalPs() / 1e9
		series["swimu_ms/"+label] = (rep.SWIMUPs + rep.SWOSPs) / 1e9
	}
	return &Result{
		ID: "PAGESIZE", Title: "Page-size sensitivity",
		Tables: []*stats.Table{tb},
		Notes: []string{
			"the paper organises the 16 KB dual-port RAM as 8 x 2 KB pages; this sweep shows the trade-off that choice sits on",
		},
		Series: series,
	}, nil
}
