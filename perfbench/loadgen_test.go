package main

import (
	"sync"
	"testing"
	"time"
)

func TestEvenSchedule(t *testing.T) {
	due := evenSchedule(5, 200)
	for i, d := range due {
		if want := time.Duration(i) * 5 * time.Millisecond; d != want {
			t.Errorf("due[%d] = %v, want %v", i, d, want)
		}
	}
}

// A server that takes 5ms per request behind one connection, fed one
// arrival per millisecond, falls further behind with every request. The
// generator must keep its schedule (small lateness) and charge each
// request the queueing it suffered, timing it from when it was due
// rather than from when it was finally sent.
func TestOpenLoopTimesFromDueNotFromSend(t *testing.T) {
	const n = 10
	const service = 5 * time.Millisecond
	due := evenSchedule(n, 1000)
	var mu sync.Mutex
	var order []int
	lat, late := openLoop(time.Now(), due, make([]int, n), 1, func(_, i int) {
		mu.Lock()
		order = append(order, i)
		mu.Unlock()
		time.Sleep(service)
	})
	for i := range order {
		if order[i] != i {
			t.Fatalf("arrivals served out of order: %v", order)
		}
	}
	for i := 0; i < n; i++ {
		// Arrival i is sent only after the i earlier ones finished, i.e.
		// no earlier than (i+1)·5ms after the start, and was due at i·1ms.
		floor := time.Duration(i+1)*service - due[i]
		if lat[i] < floor {
			t.Errorf("latency[%d] = %v, below the %v its queueing alone implies", i, lat[i], floor)
		}
	}
	if lat[n-1] <= 4*lat[0] {
		t.Errorf("latency did not grow with the backlog: first %v, last %v", lat[0], lat[n-1])
	}
	for i, l := range late {
		if l < 0 || l > 40*time.Millisecond {
			t.Errorf("generator lateness[%d] = %v; the dispatcher must not wait for the server", i, l)
		}
	}
}

func TestOpenLoopRoutesLanesToTheirWorkers(t *testing.T) {
	const n = 8
	lane := make([]int, n)
	for i := range lane {
		lane[i] = i % 2
	}
	var mu sync.Mutex
	served := map[int][]int{}
	openLoop(time.Now(), make([]time.Duration, n), lane, 2, func(w, i int) {
		mu.Lock()
		served[w] = append(served[w], i)
		mu.Unlock()
		time.Sleep(time.Millisecond)
	})
	for w, is := range served {
		for k, i := range is {
			if lane[i] != w || (k > 0 && i < is[k-1]) {
				t.Fatalf("worker %d served %v: every arrival of its lane, in order, and no other", w, is)
			}
		}
	}
	if len(served[0]) != n/2 || len(served[1]) != n/2 {
		t.Errorf("served %v, want %d arrivals per lane", served, n/2)
	}
}
