package futurerd_test

// BenchmarkPrecedes is the cost-model microbenchmark behind the
// vector-clock back-end's no-closure-growth claim: it times one Precedes
// query on each back-end after executions of increasing strand count, so
// the output is a curve, not an assertion. The driver replays a
// get-heavy future chain — every round creates a future and gets one
// created stride rounds earlier — which is exactly the shape that makes
// MultiBags+ accumulate R-closure (each escaping get adds arcs) while
// the vector-clock representation stays a per-strand epoch. A back-end
// whose query cost is independent of execution length shows a flat
// ns/op across the strands= columns; closure- or probe-based back-ends
// drift upward.

import (
	"fmt"
	"testing"

	"futurerd/internal/core"
)

// chain drives a Reach directly with the record sequence the engine
// would emit for the get-heavy future chain, mimicking its dense
// depth-first strand allocation. It returns the executing strand and a
// spread of earlier strands to query against it.
func chain(m core.Reach, st *core.StrandTable, strands, stride int) (core.StrandID, []core.StrandID) {
	const mainFn = core.FnID(1)
	st.Add(1, mainFn)
	m.Init(mainFn, 1)
	cur := core.StrandID(1)
	nextFn := core.FnID(2)
	type fut struct {
		fn      core.FnID
		last    core.StrandID
		creator core.StrandID
	}
	var futs []fut
	gets := 0
	for int(cur) < strands {
		fn := nextFn
		nextFn++
		futFirst, contFirst := cur+1, cur+2
		st.Add(futFirst, fn)
		st.Add(contFirst, mainFn)
		m.CreateFut(core.CreateRec{
			ParentFn: mainFn, FutFn: fn,
			Creator: cur, FutFirst: futFirst, ContFirst: contFirst,
		})
		m.Return(core.ReturnRec{Fn: fn, ParentFn: mainFn, Last: futFirst})
		futs = append(futs, fut{fn: fn, last: futFirst, creator: cur})
		cur = contFirst
		if gets < len(futs)-stride {
			f := futs[gets]
			gets++
			cont := cur + 1
			st.Add(cont, mainFn)
			m.GetFut(core.GetRec{
				Fn: mainFn, FutFn: f.fn,
				Getter: cur, FutLast: f.last, Cont: cont,
				Creator: f.creator, Touch: 1,
			})
			cur = cont
		}
	}
	// Query a spread of past strands against the executing strand: both
	// already-joined futures (ordered) and recent unjoined ones
	// (parallel), so the timing mixes answer paths the way detection does.
	var us []core.StrandID
	for s := core.StrandID(1); s < cur; s += core.StrandID(strands/64 + 1) {
		us = append(us, s)
	}
	return cur, us
}

var precedesSink bool

func BenchmarkPrecedes(b *testing.B) {
	backends := []struct {
		name string
		mk   func(*core.StrandTable) core.Reach
	}{
		{"spbags", func(st *core.StrandTable) core.Reach { return core.NewSPBags(st) }},
		{"multibags", func(st *core.StrandTable) core.Reach { return core.NewMultiBags(st) }},
		{"multibags+", func(st *core.StrandTable) core.Reach { return core.NewMultiBagsPlus(st) }},
		{"vc", func(st *core.StrandTable) core.Reach { return core.NewVectorClocks(st) }},
	}
	for _, be := range backends {
		for _, strands := range []int{512, 2048, 8192} {
			b.Run(fmt.Sprintf("algo=%s/strands=%d", be.name, strands), func(b *testing.B) {
				st := core.NewStrandTable(strands + 8)
				m := be.mk(st)
				cur, us := chain(m, st, strands, 16)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					precedesSink = m.Precedes(us[i%len(us)], cur)
				}
			})
		}
	}
}
