package ds

import "sync/atomic"

// PubSlice is a grow-only slice published from one writer goroutine to any
// number of concurrent readers through an atomic header, the pattern
// core.StrandTable uses for the strand→function mapping. The writer owns
// the backing array and grows it copy-on-write: Grow allocates a new
// backing, copies the old elements, and republishes the header, so a
// reader holding the previous snapshot keeps a consistent (older) view and
// never observes a partially-copied array.
//
// Element writes through W are plain stores. That is safe exactly when the
// caller guarantees no reader loads the same index concurrently, e.g.
// because every index it writes is fresh (no concurrent reader can name
// it yet).
// Readers that only need a stale-but-consistent view load RO once and
// index into the snapshot.
type PubSlice[T any] struct {
	hdr atomic.Pointer[[]T]
	s   []T // writer-private backing; hdr republishes it after each Grow
}

// Len returns the writer-side length.
func (p *PubSlice[T]) Len() int { return len(p.s) }

// Grow extends the slice to at least length n (zero-filled, at least
// doubling) and republishes the header. Elements already present keep
// their values. Writer goroutine only.
func (p *PubSlice[T]) Grow(n int) {
	if n <= len(p.s) {
		return
	}
	if c := 2 * len(p.s); n < c {
		n = c
	}
	ns := make([]T, n)
	copy(ns, p.s)
	p.s = ns
	p.hdr.Store(&ns)
}

// W returns the writer-side backing for element reads and writes. The
// returned slice is valid until the next Grow. Writer goroutine only.
func (p *PubSlice[T]) W() []T { return p.s }

// RO returns the most recently published snapshot for concurrent readers.
// The snapshot may lag the writer by a Grow, never by a torn copy.
func (p *PubSlice[T]) RO() []T {
	h := p.hdr.Load()
	if h == nil {
		return nil
	}
	return *h
}
