package main

import (
	"sync"
	"time"
)

// op is one operation of a workload's stream.
type op struct {
	ord    int  // ordinal in the stream
	q      int  // pool index (searches)
	reload bool // rewrite the shard set and POST /reload instead of searching
}

// schedule hands out a stream's operations to closed-loop clients. The
// stream is cut into rounds of equal length (a block of the cold pool, or
// a serve-mix epoch); a schedule only stops at a round boundary, so every
// run performs whole rounds of the same operations. Rounds are counted
// from the first ordinal the schedule hands out.
type schedule struct {
	round int
	at    func(ord int) op // called in ordinal order, under mu

	mu       sync.Mutex
	first    int // the schedule's first ordinal
	next     int
	stopAt   int       // stop at this ordinal (a round boundary); 0 = none
	deadline time.Time // or at the first round boundary after this
	stopped  bool
}

func (s *schedule) take() (op, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.stopped {
		return op{}, false
	}
	atEnd := s.stopAt > 0 && s.next == s.stopAt
	late := s.stopAt == 0 && !time.Now().Before(s.deadline)
	if (s.next-s.first)%s.round == 0 && (atEnd || late) {
		s.stopped = true
		return op{}, false
	}
	o := s.at(s.next)
	s.next++
	return o, true
}

// runRounds lets the schedule run for exactly n more rounds.
func (s *schedule) runRounds(n int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.stopped, s.stopAt = false, s.next+n*s.round
}

// runFor lets the schedule run until the first round boundary after d.
func (s *schedule) runFor(d time.Duration) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.stopped, s.stopAt, s.deadline = false, 0, time.Now().Add(d)
}

// tally counts one client's operations in a closed-loop segment.
type tally struct {
	searches, sFail int
	reloads, rFail  int
}

// closedLoop runs clients that each take the schedule's next operation as
// soon as their previous one completes, until the schedule stops.
func closedLoop(clients int, s *schedule, do func(client int, o op) error) []tally {
	out := make([]tally, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			t := &out[c]
			for {
				o, ok := s.take()
				if !ok {
					return
				}
				err := do(c, o)
				if o.reload {
					t.reloads++
					if err != nil {
						t.rFail++
					}
					continue
				}
				t.searches++
				if err != nil {
					t.sFail++
				}
			}
		}(c)
	}
	wg.Wait()
	return out
}
