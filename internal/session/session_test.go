package session

import (
	"context"
	"testing"
	"time"
)

// TestAcquireSlots pins the per-session slot semaphore: MaxInflight
// Acquires succeed, the next one gives up at its deadline, a Release
// frees a slot again, and MaxInflight <= 0 never refuses.
func TestAcquireSlots(t *testing.T) {
	g := testGraph(t, 11)
	bg := context.Background()
	s, err := New("bounded", g, Config{MaxInflight: 2})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if !s.Acquire(bg) {
			t.Fatalf("acquire %d refused below MaxInflight 2", i)
		}
	}
	short, cancel := context.WithTimeout(bg, 10*time.Millisecond)
	defer cancel()
	if s.Acquire(short) {
		t.Fatal("third acquire granted at MaxInflight 2")
	}
	s.Release()
	again, cancelAgain := context.WithTimeout(bg, 5*time.Second)
	defer cancelAgain()
	if !s.Acquire(again) {
		t.Fatal("released slot not reusable")
	}

	for _, n := range []int{0, -1} {
		s, err := New("unbounded", g, Config{MaxInflight: n})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 100; i++ {
			if !s.Acquire(bg) {
				t.Fatalf("MaxInflight %d: acquire %d refused", n, i)
			}
		}
	}
}
