package rislive

import "github.com/bgpstream-go/bgpstream/internal/core"

// Test-only exports. The fan-out stress/property suite and its
// harness live in the external rislive_test package; these hooks hand
// it the two internals the suite needs: the shard subscription
// pre-index and the drain gate.

// TestIndex wraps a shard subscription pre-index for the superset
// property suite.
type TestIndex struct{ ix subIndex }

// Add indexes a subscription.
func (x *TestIndex) Add(sub *Subscription) { x.ix.add(sub) }

// Remove un-indexes a previously added subscription.
func (x *TestIndex) Remove(sub *Subscription) { x.ix.remove(sub) }

// Plausible probes the index the way Publish probes a shard.
func (x *TestIndex) Plausible(collector string, e *core.Elem) bool {
	return x.ix.plausible(collector, e)
}

// SetShardGate installs the per-shard drain gate; it must be called
// before the server is first used. While installed, every wake- or
// tick-triggered drain first receives from the gate, so a test can
// pile published entries into a shard queue (forcing overflow
// deterministically) and release them on demand. Close is never
// gated.
func (s *Server) SetShardGate(ch chan struct{}) { s.shardGate = ch }
