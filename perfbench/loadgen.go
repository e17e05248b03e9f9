package main

import (
	"sync"
	"time"
)

// openLoop is an open-loop load generator that is safe from coordinated
// omission. It hands arrival i to the worker of its lane at
// start+due[i] whatever the state of earlier requests, through a queue
// per lane that holds the whole schedule, so a slow answer delays the
// requests queued behind it but never the schedule itself. Each
// request's latency runs from the moment it was due, so the wait a
// stall imposes on later requests is counted; late[i] is how far behind
// schedule the generator itself handed arrival i over, which says
// whether the run kept its rate. Each lane has one worker (one
// connection); serve is called with the lane and the arrival index.
func openLoop(start time.Time, due []time.Duration, lane []int, lanes int, serve func(lane, i int)) (lat, late []time.Duration) {
	lat = make([]time.Duration, len(due))
	late = make([]time.Duration, len(due))
	queues := make([]chan int, lanes)
	var wg sync.WaitGroup
	for w := range queues {
		// Each queue holds the whole schedule so the dispatcher never
		// blocks on a busy worker.
		queues[w] = make(chan int, len(due))
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range queues[w] {
				serve(w, i)
				lat[i] = time.Since(start) - due[i]
			}
		}()
	}
	for i, d := range due {
		if wait := time.Until(start.Add(d)); wait > 0 {
			time.Sleep(wait)
		}
		late[i] = time.Since(start) - d
		queues[lane[i]] <- i
	}
	for _, q := range queues {
		close(q)
	}
	wg.Wait()
	return lat, late
}

// evenSchedule returns n arrival times spaced evenly at rate per second.
func evenSchedule(n int, rate float64) []time.Duration {
	due := make([]time.Duration, n)
	for i := range due {
		due[i] = time.Duration(float64(i) / rate * float64(time.Second))
	}
	return due
}
