package core

import (
	"sync"

	"softerror/internal/ace"
	"softerror/internal/cache"
	"softerror/internal/pipeline"
	"softerror/internal/workload"
)

// This file is the arena layer of the batched evaluation path. Profiling
// the batched sweep showed the steady state dominated by four rebuild
// costs per wave: warm hierarchy clones (~40% of bytes), collector record
// arrays (~26%), the workload's decode memos (~20%) and the deadness
// analyses (~4%). An Arena keeps all four alive between waves — pooled
// warm hierarchies re-stamped via cache.CloneInto, collectors re-armed via
// ace.BatchCollector.Reset, decoded workload.Shared streams cached by
// Params, each with its ace.BatchGroup (whose last body-prefix deadness
// analysis serves the next batch over the same stream that ends at the
// same length) — plus the pipeline's lane/slab arena. Reuse is invisible
// in the results: every reused object is either re-stamped
// bit-identically, fully reset, or a deterministic memo whose content
// depends only on the workload parameters. The
// arena-reuse seraudit check pins fresh-arena ≡ reused-arena byte
// identity; batched-independent and the -j/fleet identities pin the rest.

const (
	// arenaStreamCap bounds the decoded-workload cache per arena. A sweep
	// leader walks one benchmark per batch, so a tiny MRU list already
	// serves checkpoint resumes and repeated grid chunks while keeping a
	// long-lived daemon's arena memory proportional to a handful of memos.
	arenaStreamCap = 4
	// arenaMemCap and arenaCollCap bound the pooled warm hierarchies and
	// collectors; both match the widest batch (sweep groups cap at 8
	// lanes, benchmarks' spec columns at 16).
	arenaMemCap  = 16
	arenaCollCap = 16
	// arenaPoolCap bounds an ArenaPool's free list; checked-out arenas are
	// unbounded (one per concurrent batch leader), the cap only limits how
	// many idle arenas a pool keeps warm.
	arenaPoolCap = 32
)

// streamEntry is one decoded workload kept alive across batch waves: the
// shared stream memo plus its analysis group, whose deadness memo is
// thereby shared across every batch of a grid that runs this workload —
// not just within one batch.
type streamEntry struct {
	params workload.Params
	sh     *workload.Shared
	group  *ace.BatchGroup
}

// Arena owns one worker goroutine's reusable evaluation state. The zero
// value is ready to use. An Arena is not safe for concurrent use: check
// one out per goroutine (ArenaPool) or own one per worker.
type Arena struct {
	pipe    pipeline.BatchArena
	streams []*streamEntry // MRU-ordered decoded workloads
	mems    []*cache.Hierarchy
	colls   []*ace.BatchCollector
}

// NewArena returns an empty arena.
func NewArena() *Arena { return &Arena{} }

// stream returns the decoded shared stream and analysis group for w,
// reusing the cached entry when this arena has evaluated w before. The
// memo content is deterministic in w (generation is seeded by the
// workload parameters), so a reused entry is byte-for-byte the stream a
// fresh decode would produce — just already materialised. Only the most
// recently used stream keeps its group's deadness analysis: consecutive
// batches over one stream reuse it, and an arena's resident analyses stay
// at one however many streams it caches.
func (a *Arena) stream(w workload.Params) (*workload.Shared, *ace.BatchGroup, error) {
	for i, e := range a.streams {
		if e.params == w {
			if i > 0 {
				a.streams[0].group.Release()
			}
			copy(a.streams[1:i+1], a.streams[:i])
			a.streams[0] = e
			return e.sh, e.group, nil
		}
	}
	sh, err := workload.NewShared(w)
	if err != nil {
		return nil, nil, err
	}
	if len(a.streams) > 0 {
		a.streams[0].group.Release()
	}
	e := &streamEntry{params: w, sh: sh, group: ace.NewBatchGroup(sh)}
	if len(a.streams) < arenaStreamCap {
		a.streams = append(a.streams, nil)
	}
	copy(a.streams[1:], a.streams)
	a.streams[0] = e
	return sh, e.group, nil
}

// warmHierarchy returns a warmed default hierarchy, re-stamping a pooled
// one when available (bit-identical to a fresh workload.WarmedDefault).
func (a *Arena) warmHierarchy() *cache.Hierarchy {
	var dst *cache.Hierarchy
	if n := len(a.mems); n > 0 {
		dst, a.mems = a.mems[n-1], a.mems[:n-1]
	}
	return workload.WarmedInto(dst)
}

// putHierarchy returns a finished lane's hierarchy to the pool.
func (a *Arena) putHierarchy(h *cache.Hierarchy) {
	if h != nil && len(a.mems) < arenaMemCap {
		a.mems = append(a.mems, h)
	}
}

// collector returns a collector armed for cfg over group, re-using a
// pooled one's storage when available.
func (a *Arena) collector(cfg ace.CollectorConfig, group *ace.BatchGroup) (*ace.BatchCollector, error) {
	if n := len(a.colls); n > 0 {
		c := a.colls[n-1]
		a.colls = a.colls[:n-1]
		if err := c.Reset(cfg, group); err != nil {
			return nil, err
		}
		return c, nil
	}
	return ace.NewBatchCollector(cfg, group)
}

// putCollector returns a finished collector to the pool. Must only be
// called after Finish: the reports Finish returned are detached copies,
// so the next Reset cannot reach previously returned results.
func (a *Arena) putCollector(c *ace.BatchCollector) {
	if c != nil && len(a.colls) < arenaCollCap {
		a.colls = append(a.colls, c)
	}
}

// ArenaPool hands arenas to worker goroutines: Get returns a warm arena
// (or a fresh one when none is idle), Put parks it for the next worker.
// Sharing one pool across a grid — or across a daemon's jobs and fleet
// leases — is what carries decoded streams and warm buffers from one
// batch wave to the next. The zero value is ready to use.
type ArenaPool struct {
	mu   sync.Mutex
	free []*Arena
}

// NewArenaPool returns an empty pool.
func NewArenaPool() *ArenaPool { return &ArenaPool{} }

// Get checks an arena out of the pool, allocating one when empty.
func (p *ArenaPool) Get() *Arena {
	p.mu.Lock()
	defer p.mu.Unlock()
	if n := len(p.free); n > 0 {
		a := p.free[n-1]
		p.free = p.free[:n-1]
		return a
	}
	return NewArena()
}

// Put returns an arena to the pool. The caller must be done with it: an
// arena serves one goroutine at a time.
func (p *ArenaPool) Put(a *Arena) {
	if a == nil {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(p.free) < arenaPoolCap {
		p.free = append(p.free, a)
	}
}

// defaultArenas backs RunBatchContext, so every batched caller — suites,
// benchmarks, ad-hoc drivers — reuses evaluation state across calls even
// without plumbing a pool of its own.
var defaultArenas = NewArenaPool()
