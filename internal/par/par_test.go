package par

import (
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
)

func TestRunOrdersResults(t *testing.T) {
	for _, workers := range []int{1, 2, 4, 8} {
		p := NewPool(workers)
		got, err := Run(p, 100, func(i int) (int, error) { return i * i, nil })
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i, v := range got {
			if v != i*i {
				t.Fatalf("workers=%d: got[%d] = %d, want %d", workers, i, v, i*i)
			}
		}
	}
}

func TestRunLowestIndexError(t *testing.T) {
	errA := errors.New("a")
	errB := errors.New("b")
	for _, workers := range []int{1, 4} {
		p := NewPool(workers)
		_, err := Run(p, 10, func(i int) (int, error) {
			switch i {
			case 3:
				return 0, errA
			case 7:
				return 0, errB
			}
			return i, nil
		})
		if !errors.Is(err, errA) {
			t.Fatalf("workers=%d: got %v, want lowest-index error %v", workers, err, errA)
		}
	}
}

func TestRunSerialEarlyExit(t *testing.T) {
	var calls atomic.Int64
	p := NewPool(1)
	_, err := Run(p, 10, func(i int) (int, error) {
		calls.Add(1)
		if i == 2 {
			return 0, fmt.Errorf("boom at %d", i)
		}
		return i, nil
	})
	if err == nil {
		t.Fatal("want error")
	}
	if got := calls.Load(); got != 3 {
		t.Fatalf("serial path ran %d tasks after error at index 2, want 3", got)
	}
}

func TestRunBoundsConcurrency(t *testing.T) {
	const workers = 3
	p := NewPool(workers)
	var inFlight, peak atomic.Int64
	_, err := Run(p, 50, func(i int) (struct{}, error) {
		n := inFlight.Add(1)
		for {
			old := peak.Load()
			if n <= old || peak.CompareAndSwap(old, n) {
				break
			}
		}
		runtime.Gosched()
		inFlight.Add(-1)
		return struct{}{}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if p := peak.Load(); p > workers {
		t.Fatalf("observed %d concurrent tasks, pool bound is %d", p, workers)
	}
}

func TestMap(t *testing.T) {
	p := NewPool(4)
	got, err := Map(p, []string{"a", "bb", "ccc"}, func(i int, s string) (int, error) {
		return len(s), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range []int{1, 2, 3} {
		if got[i] != want {
			t.Fatalf("got[%d] = %d, want %d", i, got[i], want)
		}
	}
}

func TestRunEmpty(t *testing.T) {
	got, err := Run(NewPool(4), 0, func(i int) (int, error) { return 0, nil })
	if err != nil || got != nil {
		t.Fatalf("got %v, %v; want nil, nil", got, err)
	}
}

func TestNewPoolDefaultsToGOMAXPROCS(t *testing.T) {
	for _, n := range []int{0, -3} {
		if got := NewPool(n).Workers(); got != runtime.GOMAXPROCS(0) {
			t.Fatalf("NewPool(%d).Workers() = %d, want GOMAXPROCS %d", n, got, runtime.GOMAXPROCS(0))
		}
	}
}
