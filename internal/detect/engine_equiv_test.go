package detect

import (
	"reflect"
	"testing"

	"futurerd/internal/event"
)

// These tests pin the pipeline equivalence guarantee: the serial engine
// and every Workers configuration (the asynchronous back-end) produce
// verdict-, order- and counter-identical reports.

// mixedProg mixes every pipeline regime: a wide fan-out of leaf tasks
// over disjoint pages, children sharing racy pages (ordered race
// delivery), a future raced against its creator, owned-word re-reads and
// repeated read-shared passes.
func mixedProg(tk *Task) {
	tk.WriteRange(1<<20, 300) // shared region, written before the fan-out
	for i := 0; i < 8; i++ {
		base := uint64(1 + i*4*4096) // four pages apart
		tk.Spawn(func(c *Task) {
			c.WriteRange(base, 900)
			c.ReadRange(base, 900) // own writes: owned skips
			if i%2 == 1 {
				// Odd children also touch the shared region: the
				// re-writes race against the parent's pre-fan-out writes.
				c.WriteRange(1<<20, 150)
			}
		})
	}
	tk.Sync()
	h := tk.CreateFut(func(ft *Task) any {
		ft.ReadRange(1<<20, 300) // ordered after the sync: race free
		ft.WriteRange(1<<21, 200)
		return nil
	})
	tk.ReadRange(1<<21, 200) // parallel with the future: races
	tk.GetFut(h)
	tk.Spawn(func(c *Task) {
		c.ReadRange(1<<21, 200) // ordered after the get via the parent
		c.ReadRange(1<<21, 200) // second pass: read-shared skips
	})
	tk.Sync()
}

// equivStats returns a report's Stats for a deep-equal against another
// pipeline configuration, after checking that the always-zero Event
// fields really are zero.
func equivStats(t *testing.T, label string, s Stats) Stats {
	t.Helper()
	if ev := s.Event; ev != (event.Stats{Batches: ev.Batches}) {
		t.Fatalf("%s: always-zero event counters are set: %+v", label, ev)
	}
	return s
}

// checkWorkersEquivalent runs prog under cfg with Workers ∈ {1,4} and
// deep-equals each report's races (content and order), violations and
// full Stats against the serial run, which it returns. The Workers = 4
// engine must actually run the asynchronous back-end.
func checkWorkersEquivalent(t *testing.T, cfg Config, prog func(*Task)) *Report {
	t.Helper()
	serial := NewEngine(cfg).Run(prog)
	if serial.Err != nil {
		t.Fatalf("%v serial: %v", cfg.Mode, serial.Err)
	}
	if !serial.Racy() {
		t.Fatalf("%v: program raced nowhere; the test needs races to order", cfg.Mode)
	}
	if serial.Stats.Event.Batches == 0 {
		t.Fatalf("%v: no batches sealed", cfg.Mode)
	}
	ss := equivStats(t, "serial", serial.Stats)
	for _, workers := range []int{1, 4} {
		c := cfg
		c.Workers = workers
		e := NewEngine(c)
		if (e.be != nil) != (workers > 1) {
			t.Fatalf("%v w=%d: asynchronous back-end = %v", cfg.Mode, workers, e.be != nil)
		}
		rep := e.Run(prog)
		if rep.Err != nil {
			t.Fatalf("%v w=%d: %v", cfg.Mode, workers, rep.Err)
		}
		if !reflect.DeepEqual(serial.Races, rep.Races) {
			t.Fatalf("%v w=%d: race streams diverge\nserial %v\ngot    %v",
				cfg.Mode, workers, serial.Races, rep.Races)
		}
		if !reflect.DeepEqual(serial.Violations, rep.Violations) {
			t.Fatalf("%v w=%d: violations diverge", cfg.Mode, workers)
		}
		if as := equivStats(t, "workers", rep.Stats); !reflect.DeepEqual(ss, as) {
			t.Fatalf("%v w=%d: stats diverge\nserial %+v\ngot    %+v",
				cfg.Mode, workers, ss, as)
		}
	}
	return serial
}

// TestWorkersStatsEquivalence is the acceptance check: across all four
// reachability algorithms × Workers ∈ {1,4}, the race stream (content
// and order), the violations and the full Stats — shadow protocol
// traffic, both epoch fast paths, memo and page-cache hits, reachability
// queries, batch counts — must deep-equal the serial run.
func TestWorkersStatsEquivalence(t *testing.T) {
	for _, mode := range []Mode{ModeSPBags, ModeMultiBags, ModeMultiBagsPlus, ModeVectorClocks} {
		checkWorkersEquivalent(t, Config{Mode: mode, Mem: MemFull, MaxRaces: 1 << 20}, mixedProg)
	}
}

// epochProg exercises the carried-forward read epoch: four children
// install disjoint writer blocks over one shared range, then the parent
// re-scans the whole range with a real spawn+sync between scans — every
// scan runs in a new construct generation on a new strand of the same
// function, so only the cross-generation stamp transfer keeps the
// re-scans query-free. A future raced against its creator keeps the race
// stream non-empty so delivery order is pinned.
func epochProg(tk *Task) {
	for i := 0; i < 4; i++ {
		base := uint64(1 + i*1024)
		tk.Spawn(func(c *Task) { c.WriteRange(base, 1024) })
	}
	tk.Sync()
	for pass := 0; pass < 3; pass++ {
		tk.Spawn(func(c *Task) {})
		tk.Sync() // a folding construct: the next scan is a new generation
		tk.ReadRange(1, 4096)
	}
	h := tk.CreateFut(func(ft *Task) any {
		ft.WriteRange(1<<21, 64)
		return nil
	})
	tk.ReadRange(1<<21, 64) // parallel with the future: races
	tk.GetFut(h)
}

// TestEpochWorkersEquivalence pins the epoch counters and the stamp
// transfer across pipeline configurations: for every algorithm ×
// Workers ∈ {1,4}, the full Stats — including EpochHits,
// EpochInflations, EpochDeflations and SpillEntries — must deep-equal
// the serial run, and the serial run must actually take
// cross-generation transfers. For the verifying algorithms, a Verify run
// (whose wrapped relation drops the EpochConcurrent capability, so the
// reference protocol runs epoch-free under oracle audit) must report the
// identical race stream.
func TestEpochWorkersEquivalence(t *testing.T) {
	for _, mode := range []Mode{ModeSPBags, ModeMultiBags, ModeMultiBagsPlus} {
		serial := checkWorkersEquivalent(t, Config{Mode: mode, Mem: MemFull, MaxRaces: 1 << 20}, epochProg)
		if serial.Stats.Shadow.EpochHits == 0 {
			t.Fatalf("%v: no cross-generation stamp transfers; the test exercises nothing", mode)
		}
		if mode == ModeSPBags {
			continue // the oracle models future joins; SPBags deliberately does not
		}
		ref := NewEngine(Config{Mode: mode, Mem: MemFull, Verify: true, MaxRaces: 1 << 20}).Run(epochProg)
		if ref.Err != nil {
			t.Fatalf("%v verify: %v", mode, ref.Err)
		}
		for _, v := range ref.Violations {
			t.Fatalf("%v verify: %s: %s", mode, v.Kind, v.Detail)
		}
		if ref.Stats.Shadow.EpochHits != 0 {
			t.Fatalf("%v verify: reference run took %d epoch transfers, want 0",
				mode, ref.Stats.Shadow.EpochHits)
		}
		if !reflect.DeepEqual(serial.Races, ref.Races) {
			t.Fatalf("%v: epoch run and epoch-free reference diverge\nepoch %v\nref   %v",
				mode, serial.Races, ref.Races)
		}
	}
}

// TestAsyncBackendCheckStructuredDefersGets: CheckStructured's discipline
// query does not drain the back-end — it is deferred and answered from
// the versioned snapshot in stream order. A structured program must stay
// violation-free and a multi-touch one must report the same violations in
// the same order as the synchronous pipeline, for every Workers width.
func TestAsyncBackendCheckStructuredDefersGets(t *testing.T) {
	structured := func(tk *Task) {
		for i := 0; i < 40; i++ {
			base := uint64(1 + i*2*4096)
			h := tk.CreateFut(func(ft *Task) any {
				ft.WriteRange(base, 80)
				return i
			})
			tk.ReadRange(base, 80) // parallel: races
			tk.GetFut(h)
			tk.ReadRange(base, 80) // ordered after the get
		}
	}
	multiTouch := func(tk *Task) {
		h := tk.CreateFut(func(ft *Task) any { ft.Write(1); return 0 })
		tk.GetFut(h)
		tk.GetFut(h) // multi-touch violation
		tk.Write(1)
	}
	for _, prog := range []func(*Task){structured, multiTouch} {
		serial := NewEngine(Config{
			Mode: ModeMultiBags, Mem: MemFull, CheckStructured: true, MaxRaces: 1 << 20,
		}).Run(prog)
		if serial.Err != nil {
			t.Fatal(serial.Err)
		}
		for _, workers := range []int{2, 4} {
			rep := NewEngine(Config{
				Mode: ModeMultiBags, Mem: MemFull, CheckStructured: true, MaxRaces: 1 << 20,
				Workers: workers,
			}).Run(prog)
			if rep.Err != nil {
				t.Fatalf("w=%d: %v", workers, rep.Err)
			}
			if !reflect.DeepEqual(serial.Violations, rep.Violations) {
				t.Fatalf("w=%d: violations diverge\nserial %v\ngot    %v",
					workers, serial.Violations, rep.Violations)
			}
			if !reflect.DeepEqual(serial.Races, rep.Races) {
				t.Fatalf("w=%d: races diverge", workers)
			}
		}
	}
}
