package server

import (
	"errors"
	"sync"

	"pardetect/internal/store"
)

// flightGroup is a minimal singleflight: concurrent calls with the same key
// collapse onto one execution of fn; the joiners block until the leader
// finishes and share its return values. The standard library has no
// singleflight and this repository takes no external dependencies, so the
// ~40 lines live here.
//
// Unlike a cache, a flight entry exists only while the leader runs: results
// are not retained, so errors are never sticky — the next request after a
// failed flight starts a fresh one.
type flightGroup struct {
	mu sync.Mutex
	m  map[string]*flightCall
}

type flightCall struct {
	done chan struct{}
	val  *store.Entry
	err  error
}

// do executes fn under key, collapsing concurrent duplicates. joined reports
// whether this call rode along on another caller's execution instead of
// running fn itself (the server counts those as dedup joins).
func (g *flightGroup) do(key string, fn func() (*store.Entry, error)) (val *store.Entry, err error, joined bool) {
	g.mu.Lock()
	if g.m == nil {
		g.m = make(map[string]*flightCall)
	}
	if c, ok := g.m[key]; ok {
		g.mu.Unlock()
		<-c.done
		return c.val, c.err, true
	}
	c := &flightCall{done: make(chan struct{})}
	g.m[key] = c
	g.mu.Unlock()

	// The flight entry must leave the map and done must close no matter how
	// fn returns. If fn panics, the panic propagates to the leader (whose
	// request path maps recovered panics to a 500), but without this defer
	// the entry would stay in the map with done never closed — every current
	// joiner and every future request for the key would block forever.
	// Joiners of a panicked flight get a non-sticky error: the flight is
	// gone, so their retry starts fresh.
	finished := false
	defer func() {
		if !finished {
			c.err = errFlightPanic
		}
		g.mu.Lock()
		delete(g.m, key)
		g.mu.Unlock()
		close(c.done)
	}()
	c.val, c.err = fn()
	finished = true
	return c.val, c.err, false
}

// errFlightPanic is what joiners of a flight whose leader panicked receive;
// the serving layer maps it to the panic outcome (500), matching what the
// leader's own request reports.
var errFlightPanic = errors.New("server: singleflight leader panicked")
