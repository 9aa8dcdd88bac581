// Package cluster is the horizontal scale-out layer: a consistent-hash
// ring that shards solve traffic across rasengan-serve backends, a
// retry/backoff policy that honors the backends' computed Retry-After,
// an active health checker with ejection and re-admission, and the
// gateway HTTP front end that ties them together.
//
// Routing is keyed on the canonical spec hash (problems.Spec.Hash), so
// repeat submissions of one spec land on the node that already holds
// its cached payload, journal entry, and warm-start vector. Because
// solves are deterministic and content-addressed, any node produces
// byte-identical payloads for the same spec — affinity is a latency
// optimization, never a correctness requirement.
package cluster

import (
	"fmt"
	"sort"
	"sync"
)

// DefaultVirtualNodes is the per-backend virtual-node count. 128 points
// per backend keeps the expected load imbalance across 16 backends
// within a few tens of percent of the mean (see ring_test.go).
const DefaultVirtualNodes = 128

// Ring is a consistent-hash ring with virtual nodes and per-backend
// ejection. Placement is fully determined by (seed, backend ids,
// vnodes): two rings built with the same inputs map every key to the
// same backend, on any host, in any process. Ejecting a backend does
// not move ring points — lookups walk past ejected points to the next
// live backend, so re-admission restores the original placement
// exactly (cache affinity survives a blip).
type Ring struct {
	mu       sync.RWMutex
	seed     uint64
	vnodes   int
	points   []ringPoint // sorted by hash
	backends []string    // sorted member ids
	ejected  map[string]bool
}

type ringPoint struct {
	hash    uint64
	backend string
}

// NewRing builds a ring over the given backend ids. vnodes ≤ 0 selects
// DefaultVirtualNodes. Duplicate ids collapse to one membership.
func NewRing(seed uint64, vnodes int, backends []string) *Ring {
	if vnodes <= 0 {
		vnodes = DefaultVirtualNodes
	}
	r := &Ring{seed: seed, vnodes: vnodes, ejected: map[string]bool{}}
	seen := map[string]bool{}
	for _, b := range backends {
		if b != "" && !seen[b] {
			seen[b] = true
			r.backends = append(r.backends, b)
		}
	}
	sort.Strings(r.backends)
	r.rebuild()
	return r
}

// rebuild recomputes the point set; callers hold r.mu (or own r
// exclusively, as NewRing does).
func (r *Ring) rebuild() {
	r.points = r.points[:0]
	for _, b := range r.backends {
		for v := 0; v < r.vnodes; v++ {
			r.points = append(r.points, ringPoint{
				hash:    mix64(r.seed ^ fnv64(fmt.Sprintf("%s#%d", b, v))),
				backend: b,
			})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		// Hash ties (astronomically rare) break on the backend id so the
		// ring order stays deterministic regardless of membership history.
		return r.points[i].backend < r.points[j].backend
	})
}

// Add inserts a backend. Only the ~K/(n+1) keys whose arcs the new
// backend's points land on move; everything else keeps its owner.
func (r *Ring) Add(id string) {
	if id == "" {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, b := range r.backends {
		if b == id {
			return
		}
	}
	r.backends = append(r.backends, id)
	sort.Strings(r.backends)
	r.rebuild()
}

// Remove deletes a backend permanently (for a temporary outage use
// SetEjected, which preserves placement). Only its own ~K/n keys move.
func (r *Ring) Remove(id string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for i, b := range r.backends {
		if b == id {
			r.backends = append(r.backends[:i], r.backends[i+1:]...)
			delete(r.ejected, id)
			r.rebuild()
			return
		}
	}
}

// SetEjected marks a backend unroutable (true) or routable again
// (false) without touching ring placement.
func (r *Ring) SetEjected(id string, ejected bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if ejected {
		r.ejected[id] = true
	} else {
		delete(r.ejected, id)
	}
}

// Ejected reports whether the backend is currently marked unroutable.
func (r *Ring) Ejected(id string) bool {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.ejected[id]
}

// Members returns the backend ids in sorted order (ejected included).
func (r *Ring) Members() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]string, len(r.backends))
	copy(out, r.backends)
	return out
}

// Lookup returns the live backend owning key: the first non-ejected
// backend at or clockwise from the key's hash. ok is false when the
// ring is empty or every backend is ejected.
func (r *Ring) Lookup(key string) (backend string, ok bool) {
	s := r.Successors(key, 1)
	if len(s) == 0 {
		return "", false
	}
	return s[0], true
}

// Successors returns up to n distinct live backends in ring order
// starting at the key's owner — index 0 is the owner, index 1 the next
// replica (the failover target), and so on. Ejected backends
// never appear.
func (r *Ring) Successors(key string, n int) []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if len(r.points) == 0 || n <= 0 {
		return nil
	}
	h := mix64(r.seed ^ fnv64(key))
	start := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	var out []string
	seen := map[string]bool{}
	for i := 0; i < len(r.points) && len(out) < n; i++ {
		p := r.points[(start+i)%len(r.points)]
		if seen[p.backend] || r.ejected[p.backend] {
			continue
		}
		seen[p.backend] = true
		out = append(out, p.backend)
	}
	return out
}

// fnv64 is FNV-1a over the string, the stable ingredient of point and
// key hashes (no seed, no process-local state).
func fnv64(s string) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime
	}
	return h
}

// mix64 is the SplitMix64 finalizer: it spreads the seeded FNV hash
// uniformly over the ring so vnode points interleave well even for
// backend ids that share long prefixes ("n1", "n2", ...).
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}
