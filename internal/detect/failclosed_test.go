package detect

import (
	"errors"
	"strings"
	"testing"
	"time"

	"futurerd/internal/faultinject"
)

// TestErrorPathJoinsPipeline: a run aborted by a program error
// (ErrFutureNotReady) must still join every pipeline goroutine, for every
// pipeline shape. The leak check is the assertion.
func TestErrorPathJoinsPipeline(t *testing.T) {
	faultinject.GoroutineLeakCheck(t)
	for _, workers := range []int{0, 4} {
		rep := NewEngine(Config{
			Mode: ModeMultiBagsPlus, Mem: MemFull, Workers: workers,
		}).Run(func(t *Task) {
			for i := 0; i < 200; i++ { // enough traffic to open batches
				t.Write(uint64(i) * 1024)
			}
			t.GetFut(&Fut{}) // never completed: aborts the run
		})
		if !errors.Is(rep.Err, ErrFutureNotReady) {
			t.Fatalf("w=%d: want ErrFutureNotReady, got %v", workers, rep.Err)
		}
	}
}

// TestInjectedPanicBecomesPipelineError pins the recovery chain on both
// checking paths — the asynchronous consumer (Workers 4) and the inline
// path (Workers 1): the injected panic value must survive — wrapped, not
// swallowed — into a PipelineError carrying the stage and the batch in
// hand, and the engine must be poisoned, not wedged.
func TestInjectedPanicBecomesPipelineError(t *testing.T) {
	faultinject.GoroutineLeakCheck(t)
	for _, workers := range []int{1, 4} {
		stage := "inline"
		if workers > 1 {
			stage = "consumer"
		}
		rep := NewEngine(Config{
			Mode: ModeMultiBagsPlus, Mem: MemFull, Workers: workers,
			Faults: faultinject.Single(faultinject.ConsumerPanic, 1),
		}).Run(func(t *Task) {
			for i := 0; i < 64; i++ {
				t.Spawn(func(c *Task) {
					for j := 0; j < 64; j++ {
						c.Write(uint64(i*64+j) * 512)
					}
				})
			}
			t.Sync()
		})
		var pe *PipelineError
		if !errors.As(rep.Err, &pe) {
			t.Fatalf("w=%d: want a PipelineError, got %v", workers, rep.Err)
		}
		if pe.Stage != stage {
			t.Fatalf("w=%d: stage = %q, want %s", workers, pe.Stage, stage)
		}
		var fp faultinject.Panic
		if !errors.As(pe, &fp) || fp.Point != faultinject.ConsumerPanic {
			t.Fatalf("w=%d: injected panic lost in the cause chain: %v", workers, pe)
		}
		if !strings.Contains(pe.Error(), stage) {
			t.Fatalf("w=%d: error text does not name the stage: %v", workers, pe)
		}
		if !strings.Contains(pe.Batch, "strand") || !strings.Contains(pe.Batch, "ops") {
			t.Fatalf("w=%d: batch diagnosis %q does not describe the batch", workers, pe.Batch)
		}
	}
}

// TestPoisonedEngineRefusesWork: after a pipeline failure the engine's
// construct and access hooks must return the failure instead of feeding a
// dead pipeline (or blocking on it).
func TestPoisonedEngineRefusesWork(t *testing.T) {
	faultinject.GoroutineLeakCheck(t)
	e := NewEngine(Config{
		Mode: ModeMultiBagsPlus, Mem: MemFull, Workers: 4,
		Faults: faultinject.Single(faultinject.ConsumerPanic, 1),
	})
	done := make(chan *Report, 1)
	go func() {
		done <- e.Run(func(t *Task) {
			// Keep issuing work long after the injected panic; every call
			// must return promptly once the engine is poisoned.
			for i := 0; i < 1_000_000; i++ {
				t.Write(uint64(i) * 512)
			}
		})
	}()
	select {
	case rep := <-done:
		var pe *PipelineError
		if !errors.As(rep.Err, &pe) {
			t.Fatalf("want a PipelineError, got %v", rep.Err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("poisoned engine wedged instead of failing")
	}
}

// TestProgressStringIsReadable keeps the diagnostic surface stable: the
// progress snapshot inside a stall error is what an operator reads first.
func TestProgressStringIsReadable(t *testing.T) {
	p := PipelineProgress{Sealed: 9, Dispatched: 7, Checked: 4}
	s := p.String()
	for _, want := range []string{"9", "7", "4"} {
		if !strings.Contains(s, want) {
			t.Fatalf("progress string %q lost a counter (%s)", s, want)
		}
	}
}
