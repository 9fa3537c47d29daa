package core

import (
	"math/rand/v2"
	"testing"
)

func TestRdagBasicReachability(t *testing.T) {
	var r rdag
	a := r.addNode()
	b := r.addNode()
	c := r.addNode()
	r.addArc(a, b)
	r.addArc(b, c)
	if !r.reaches(a, b) || !r.reaches(b, c) {
		t.Fatal("direct arcs not reachable")
	}
	if !r.reaches(a, c) {
		t.Fatal("transitive closure not maintained")
	}
	if r.reaches(c, a) || r.reaches(b, a) {
		t.Fatal("reverse reachability reported")
	}
	if r.reaches(a, a) {
		t.Fatal("reaches must be irreflexive (no self paths in R)")
	}
}

func TestRdagSelfAndDuplicateArcs(t *testing.T) {
	var r rdag
	a := r.addNode()
	b := r.addNode()
	r.addArc(a, a) // self arc: ignored
	if r.arcs != 0 {
		t.Fatal("self arc counted")
	}
	r.addArc(a, b)
	r.addArc(a, b) // duplicate: ignored (already reachable)
	if r.arcs != 1 {
		t.Fatalf("arcs = %d, want 1", r.arcs)
	}
	// Arc between already-transitively-connected nodes is also skipped.
	c := r.addNode()
	r.addArc(b, c)
	r.addArc(a, c)
	if r.arcs != 2 {
		t.Fatalf("redundant transitive arc counted: arcs = %d, want 2", r.arcs)
	}
	if !r.reaches(a, c) {
		t.Fatal("reachability lost")
	}
}

// TestRdagLatePropagation inserts an arc whose target already has
// descendants — the sync lines 35–36 case — and checks the closure
// propagates to every descendant.
func TestRdagLatePropagation(t *testing.T) {
	var r rdag
	// Chain b0 → b1 → b2 → b3 built first.
	b := []int32{r.addNode(), r.addNode(), r.addNode(), r.addNode()}
	for i := 0; i+1 < len(b); i++ {
		r.addArc(b[i], b[i+1])
	}
	// New source a, plus its own ancestor x, wired into the chain head.
	x := r.addNode()
	a := r.addNode()
	r.addArc(x, a)
	r.addArc(a, b[0])
	for _, n := range b {
		if !r.reaches(a, n) {
			t.Fatalf("a should reach b%d after late arc", n)
		}
		if !r.reaches(x, n) {
			t.Fatalf("x (a's ancestor) should reach b%d", n)
		}
	}
}

// TestRdagMatchesFloyd compares the incremental closure against
// Floyd-Warshall on random dags (arcs only from lower to higher ids, so
// acyclicity is guaranteed, as in R where arcs respect creation order).
func TestRdagMatchesFloyd(t *testing.T) {
	for seed := uint64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewPCG(seed, 99))
		const n = 40
		var r rdag
		for i := 0; i < n; i++ {
			r.addNode()
		}
		reach := [n][n]bool{}
		// Insert random forward arcs in random order.
		for k := 0; k < 120; k++ {
			i := rng.IntN(n - 1)
			j := i + 1 + rng.IntN(n-1-i)
			r.addArc(int32(i), int32(j))
			reach[i][j] = true
		}
		// Floyd-Warshall closure of the model.
		for k := 0; k < n; k++ {
			for i := 0; i < n; i++ {
				if !reach[i][k] {
					continue
				}
				for j := 0; j < n; j++ {
					if reach[k][j] {
						reach[i][j] = true
					}
				}
			}
		}
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if got := r.reaches(int32(i), int32(j)); got != reach[i][j] {
					t.Fatalf("seed %d: reaches(%d,%d) = %v, want %v",
						seed, i, j, got, reach[i][j])
				}
			}
		}
	}
}

// denseReach is the reference closure: plain reachability by DFS over the
// arcs added so far.
func denseReach(succ [][]int32) [][]bool {
	n := len(succ)
	reach := make([][]bool, n)
	for a := range reach {
		reach[a] = make([]bool, n)
		stack := append([]int32(nil), succ[a]...)
		for len(stack) > 0 {
			v := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if !reach[a][v] {
				reach[a][v] = true
				stack = append(stack, succ[v]...)
			}
		}
	}
	return reach
}

// TestRdagChunkedMatchesDense checks the chunked closure against a dense
// reference on random dags of more than 1,024 nodes, so rows span several
// 512-bit chunks and share them. Nodes get a random topological position
// when they are created and arcs follow positions, not ids: a new node
// often gets arcs into older nodes that already have descendants, the
// sync lines 35–36 shape that TestRdagMatchesFloyd never builds.
func TestRdagChunkedMatchesDense(t *testing.T) {
	for seed := uint64(0); seed < 4; seed++ {
		rng := rand.New(rand.NewPCG(seed, 7))
		const n = 1500
		var r rdag
		var pos []float64
		succ := make([][]int32, n)
		arc := func(a, b int32) {
			if pos[a] > pos[b] {
				a, b = b, a
			}
			r.addArc(a, b)
			if a != b {
				succ[a] = append(succ[a], b)
			}
		}
		for i := int32(0); i < n; i++ {
			r.addNode()
			p := float64(i)
			if rng.IntN(10) == 0 {
				p -= 0.5 + float64(rng.IntN(300)) // precedes older nodes
			}
			pos = append(pos, p)
			for k := 0; k < 3 && i > 0; k++ {
				j := i - 1 - rng.Int32N(min(i, 100))
				if k == 0 {
					j = i - 1
				}
				if rng.IntN(20) == 0 {
					j = rng.Int32N(i) // an occasional long arc
				}
				arc(i, j)
			}
			if i == n/2 || i == n-1 {
				want := denseReach(succ[:i+1])
				for a := int32(0); a <= i; a++ {
					for b := int32(0); b <= i; b++ {
						if got := r.reaches(a, b); got != want[a][b] {
							t.Fatalf("seed %d, %d nodes: reaches(%d,%d) = %v, want %v",
								seed, i+1, a, b, got, want[a][b])
						}
					}
				}
			}
		}
		// Rows must share chunks: far fewer distinct chunks than
		// non-zero row slots.
		slots, live := 0, map[uint32]bool{}
		for _, row := range r.rows {
			for _, id := range row {
				if id != 0 {
					slots++
					live[id] = true
				}
			}
		}
		if 4*len(live) >= 3*slots {
			t.Fatalf("seed %d: %d distinct chunks in %d non-zero row slots; rows do not share chunks",
				seed, len(live), slots)
		}
	}
}

// TestRdagChainClosureCompact builds a 5,000-node chain in two halves
// and then links them, so the second link propagates into rows that are
// already full. A dense closure would hold k²/128 words (half of a k×k bit
// matrix); shared all-ones chunks and elided zero chunks must keep the
// chunked closure under a fifth of that, and every pair must still answer
// exactly.
func TestRdagChainClosureCompact(t *testing.T) {
	const k = 5000
	var r rdag
	for i := 0; i < k; i++ {
		r.addNode()
	}
	// Chain order: k/2 … k-1 first, then 0 … k/2-1.
	order := make([]int32, 0, k)
	for i := int32(k / 2); i < k; i++ {
		order = append(order, i)
	}
	for i := int32(0); i < k/2; i++ {
		order = append(order, i)
	}
	for i := 1; i < k/2; i++ {
		r.addArc(order[i-1], order[i])
	}
	for i := k/2 + 1; i < k; i++ {
		r.addArc(order[i-1], order[i])
	}
	r.addArc(order[k/2-1], order[k/2])
	if dense := uint64(k * k / 128); r.closureWords()*5 >= dense {
		t.Fatalf("closure holds %d words, want < %d (a fifth of dense %d)",
			r.closureWords(), dense/5, dense)
	}
	for i := 0; i < k; i += 13 {
		for j := 0; j < k; j++ {
			if got := r.reaches(order[i], order[j]); got != (i < j) {
				t.Fatalf("reaches(chain[%d], chain[%d]) = %v, want %v", i, j, got, i < j)
			}
		}
	}
}

func TestRdagClosureWords(t *testing.T) {
	var r rdag
	a := r.addNode()
	bn := r.addNode()
	r.addArc(a, bn)
	if r.closureWords() == 0 {
		t.Fatal("closure reports zero memory")
	}
	if r.nodes() != 2 {
		t.Fatalf("nodes = %d, want 2", r.nodes())
	}
}

func BenchmarkRdagChainInsert(b *testing.B) {
	// Chain-shaped R (the pipeline benchmarks): each insertion ORs the
	// predecessor's ancestor set once — the k² term in its common shape.
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var r rdag
		prev := r.addNode()
		for k := 0; k < 1000; k++ {
			n := r.addNode()
			r.addArc(prev, n)
			prev = n
		}
	}
}
