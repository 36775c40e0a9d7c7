package metrics

import (
	"reflect"
	"sync"
	"testing"
)

func TestCounterBasics(t *testing.T) {
	var c Counter
	if c.Load() != 0 {
		t.Fatal("zero counter not zero")
	}
	c.Inc()
	c.Add(4)
	if c.Load() != 5 {
		t.Errorf("Load = %d, want 5", c.Load())
	}
}

func TestSetCreateAndGet(t *testing.T) {
	s := NewSet()
	if s.Get("missing") != 0 {
		t.Error("missing counter nonzero")
	}
	s.Counter("a").Add(3)
	s.Counter("a").Inc()
	s.Counter("b").Inc()
	if got := s.Get("a"); got != 4 {
		t.Errorf("a = %d", got)
	}
	if got := s.Snapshot(); !reflect.DeepEqual(got, map[string]uint64{"a": 4, "b": 1}) {
		t.Errorf("Snapshot = %v", got)
	}
}

func TestSetConcurrent(t *testing.T) {
	s := NewSet()
	var wg sync.WaitGroup
	const workers, per = 16, 1000
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				s.Counter("shared").Inc()
			}
		}()
	}
	wg.Wait()
	if got := s.Get("shared"); got != workers*per {
		t.Errorf("shared = %d, want %d", got, workers*per)
	}
}

func TestCachedCounterPointer(t *testing.T) {
	s := NewSet()
	c1 := s.Counter("x")
	c2 := s.Counter("x")
	if c1 != c2 {
		t.Error("Counter returned distinct pointers for one name")
	}
}
