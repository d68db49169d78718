package exp

import (
	"fmt"
	"math/rand"

	"repro/internal/apps"
	"repro/internal/bitstream"
	"repro/internal/core"
	"repro/internal/platform"
	"repro/internal/stats"
	"repro/internal/vim"
)

// SessionsClockHz is the shell clock of the sessions gang: one IMU clock
// for every tenant, with cores recompiled against divisors of it (the IDEA
// core keeps its native 6 MHz, which divides 24 MHz; the ADPCM core is
// recompiled from 40 MHz down to the shell's 24 MHz).
const SessionsClockHz = 24_000_000

// SessionsGang runs the concurrent IDEA+ADPCM gang: two coprocessor
// sessions in the slots of a two-slot shell behind one Virtual Interface
// Manager on one board, IDEA encrypting ideaBytes and ADPCM decoding
// adpcmBytes at the same time, with ideaFrames of the page pool carved into
// IDEA's home partition and the rest into ADPCM's. Both outputs are
// verified against the golden algorithms before the report is returned.
func SessionsGang(boardName, arb string, ideaFrames, ideaBytes, adpcmBytes int, seed int64) (*core.Report, error) {
	spec, ok := platform.SpecByName(boardName)
	if !ok {
		return nil, fmt.Errorf("exp: unknown board %q", boardName)
	}
	arbitration, ok := vim.NewArbitration(arb)
	if !ok {
		return nil, fmt.Errorf("exp: unknown arbitration %q", arb)
	}
	board, err := platform.NewBoard(spec)
	if err != nil {
		return nil, err
	}
	g, err := core.NewGang(board, arbitration, SessionsClockHz, 2)
	if err != nil {
		return nil, err
	}

	table, err := apps.Images(spec.Name)
	if err != nil {
		return nil, err
	}
	h, err := bitstream.Parse(table["idea"].Img)
	if err != nil {
		return nil, err
	}
	members := []struct {
		a      *apps.Image
		frames int
		hz     int64
		size   int
		mb     *core.Member
		in     []byte
		base   [apps.MaxObjects]uint32
	}{
		{a: table["idea"], frames: ideaFrames, hz: h.CoreClock, size: ideaBytes},
		{a: table["adpcm"], frames: board.DP.Pages() - ideaFrames, size: adpcmBytes},
	}
	for i := range members {
		m := &members[i]
		if m.mb, err = g.AttachMember(i, m.a.Img, m.frames, vim.Config{}, m.hz); err != nil {
			return nil, err
		}
	}
	// User buffers and inputs (each member models its own process image),
	// drawn in member order from one generator.
	rng := rand.New(rand.NewSource(seed))
	for i := range members {
		m := &members[i]
		m.in = make([]byte, m.a.InBytes(m.size))
		rng.Read(m.in)
		if err := m.a.Place(board.Kern, m.size, m.in, m.base[:]); err != nil {
			return nil, err
		}
	}
	for i := range members {
		m := &members[i]
		if err := m.a.Map(m.mb.Sess, m.size, m.base[:]); err != nil {
			return nil, err
		}
		m.mb.Params = m.a.Params(m.in, m.a.Items(m.size))
	}

	rep, err := g.ExecuteAll()
	if err != nil {
		return nil, err
	}

	// Verify both sessions' results against the golden models — the gang
	// must not trade correctness for concurrency.
	for _, m := range members {
		want := make([]byte, m.a.Bytes(m.a.Out(), m.size))
		m.a.Golden(m.in, want)
		at, err := board.Kern.MismatchUser(m.base[m.a.Out()], want)
		if err != nil {
			return nil, err
		}
		if at >= 0 {
			return nil, fmt.Errorf("exp: gang %s output diverges from the golden model at byte %d", m.a.Name, at)
		}
	}
	return rep, nil
}

// RunSessions regenerates the sessions-layer experiment: concurrent
// IDEA+ADPCM throughput behind one VIM on the EPXA4 (sixteen 2 KB frames)
// as a function of the partition split, under both arbitration policies.
// Static partitioning confines each session's paging to its home
// partition; global-LRU lets the session that is paging harder steal the
// coldest frames from its neighbour.
func RunSessions() (*Result, error) {
	const (
		boardName  = "EPXA4"
		ideaBytes  = 16384
		adpcmBytes = 8192
		seed       = int64(4242)
	)
	spec, _ := platform.SpecByName(boardName)
	pool := spec.DPBytes >> spec.PageLog // 16 frames on the EPXA4
	splits := []int{pool / 4, pool / 2, 3 * pool / 4}
	tb := &stats.Table{
		Title: fmt.Sprintf("concurrent IDEA (%d KB) + ADPCM (%d KB) on %s, shared shell @ %d MHz",
			ideaBytes/1024, adpcmBytes/1024, boardName, SessionsClockHz/1_000_000),
		Headers: []string{"split (idea+adpcm)", "arbitration", "total ms", "idea done ms",
			"adpcm done ms", "idea faults", "adpcm faults", "steals"},
	}
	series := map[string]float64{}
	for _, ideaFrames := range splits {
		for _, arb := range []string{"static", "global-lru"} {
			rep, err := SessionsGang(boardName, arb, ideaFrames, ideaBytes, adpcmBytes, seed)
			if err != nil {
				return nil, err
			}
			ideaS, adpcmS := rep.Sessions[0], rep.Sessions[1]
			label := fmt.Sprintf("%s/%d+%d", arb, ideaFrames, pool-ideaFrames)
			tb.AddRow(fmt.Sprintf("%d+%d", ideaFrames, pool-ideaFrames), arb,
				ms(rep.TotalPs()), ms(ideaS.DonePs), ms(adpcmS.DonePs),
				fmt.Sprintf("%d", ideaS.VIM.Faults), fmt.Sprintf("%d", adpcmS.VIM.Faults),
				fmt.Sprintf("%d", rep.VIM.Steals))
			series["total_ms/"+label] = rep.TotalPs() / 1e9
			series["idea_done_ms/"+label] = ideaS.DonePs / 1e9
			series["adpcm_done_ms/"+label] = adpcmS.DonePs / 1e9
			series["idea_faults/"+label] = float64(ideaS.VIM.Faults)
			series["adpcm_faults/"+label] = float64(adpcmS.VIM.Faults)
			series["steals/"+label] = float64(rep.VIM.Steals)
		}
	}
	return &Result{
		ID:     "SESSIONS",
		Title:  "Multi-coprocessor sessions behind one VIM",
		Tables: []*stats.Table{tb},
		Notes: []string{
			"both coprocessors run concurrently behind one IMU and one manager; every cell verifies both outputs against the golden algorithms",
			"starved partitions fault harder under static arbitration; global-LRU lets the paging-heavy session steal its neighbour's coldest frames",
		},
		Series: series,
	}, nil
}
