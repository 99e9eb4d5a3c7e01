// Package flight is the keyed in-flight table behind single-flight in
// both front ends: concurrent callers asking for the same key share one
// execution of its work. ltsimd's shard scheduler and ltsimr's router
// coalescing both use it, so both follow one cancel rule: a caller's
// context ends only that caller's wait, never the shared work.
package flight

import (
	"context"
	"hash/maphash"
	"sync"
)

// seed hashes keys onto partitions.
var seed = maphash.MakeSeed()

// Group is a table of in-flight calls keyed by string; the zero value
// is ready to use. Keys hash onto independently locked partitions, so
// launches of different keys seldom wait on one another.
type Group[V any] struct {
	parts [32]struct {
		mu    sync.Mutex
		calls map[string]*call[V]
	}
}

// call is one execution in flight; done closes once val and err are set.
type call[V any] struct {
	done chan struct{}
	val  V
	err  error
}

// Do returns the outcome of the work for key. If a call for key is in
// flight, Do joins it (joined is true). Otherwise it starts one by
// calling launch under the lock of the key's partition: launch must
// hand the work off (to a queue or a goroutine) without blocking, and
// the work must call finish exactly once, from another goroutine, with
// its outcome. finish removes the entry, so the next Do for key starts
// afresh, and wakes every waiter. If launch refuses with an error, Do
// returns that error and leaves no entry behind.
//
// ctx ends only this caller's wait, with ctx.Err(): the work runs on and
// every other waiter still gets its outcome. A caller whose ctx has
// already ended neither joins nor launches, so an abandoned batch does
// not start work nobody waits for.
func (g *Group[V]) Do(ctx context.Context, key string, launch func(finish func(V, error)) error) (val V, joined bool, err error) {
	if err := ctx.Err(); err != nil {
		return val, false, err
	}
	p := &g.parts[maphash.String(seed, key)%uint64(len(g.parts))]

	p.mu.Lock()
	c, joined := p.calls[key]
	if !joined {
		c = &call[V]{done: make(chan struct{})}
		finish := func(v V, err error) {
			p.mu.Lock()
			delete(p.calls, key)
			p.mu.Unlock()
			c.val, c.err = v, err
			close(c.done)
		}
		if err := launch(finish); err != nil {
			p.mu.Unlock()
			return val, false, err
		}
		if p.calls == nil {
			p.calls = make(map[string]*call[V])
		}
		p.calls[key] = c
	}
	p.mu.Unlock()

	select {
	case <-c.done:
		return c.val, joined, c.err
	case <-ctx.Done():
		return val, joined, ctx.Err()
	}
}
