package event

import "testing"

func TestAppendCoalescesContiguousSameKind(t *testing.T) {
	var b Batch
	for i := uint64(0); i < 100; i++ {
		b.Append(Read, 10+i, 1)
	}
	if b.Len() != 1 {
		t.Fatalf("sequential scan coalesced to %d ops, want 1", b.Len())
	}
	if op := b.Ops[0]; op.Addr != 10 || op.Words != 100 || op.Kind != Read {
		t.Fatalf("coalesced op = %+v", op)
	}
	// A range extending the run coalesces too.
	b.Append(Read, 110, 50)
	if b.Len() != 1 || b.Ops[0].Words != 150 {
		t.Fatalf("range extension not coalesced: %+v", b.Ops)
	}
}

func TestAppendSplitsOnKindGapAndDirection(t *testing.T) {
	var b Batch
	b.Append(Read, 10, 1)
	b.Append(Write, 11, 1) // kind change
	b.Append(Write, 20, 1) // gap
	b.Append(Write, 19, 1) // backwards (never coalesced)
	if b.Len() != 4 {
		t.Fatalf("got %d ops, want 4: %+v", b.Len(), b.Ops)
	}
}

func TestAppendIgnoresEmptyAccess(t *testing.T) {
	var b Batch
	if n := b.Append(Read, 5, 0); n != 0 || b.Len() != 0 {
		t.Fatalf("zero-word access buffered: len=%d", b.Len())
	}
	if n := b.Append(Write, 5, -3); n != 0 || b.Len() != 0 {
		t.Fatalf("negative access buffered: len=%d", b.Len())
	}
}

func TestPoolRoundTrip(t *testing.T) {
	b := New()
	b.Strand = 7
	b.Gen, b.Version, b.Seq = 3, 4, 5
	b.Append(Write, 1, 4)
	Recycle(b)
	c := New() // may or may not be b; must be empty either way
	if c.Len() != 0 || c.Strand != 0 || c.Gen != 0 || c.Version != 0 || c.Seq != 0 {
		t.Fatalf("recycled batch not reset: %+v", c)
	}
	Recycle(nil) // must not panic
}
