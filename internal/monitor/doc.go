// Package monitor turns the one-shot auditing engine into a continuous
// quality-monitoring loop: the ongoing activity the paper frames auditing
// as (§5–§6), where structure models are induced once and then used to
// measure and monitor quality as new data arrives.
//
// A Monitor sits over the model registry and observes every batch
// (audit.Result) and stream (audit.StreamResult) scored through the
// serving layer. Observations accumulate into row-count windows; when a
// window fills, it is sealed into a Snapshot (rows, suspicious rate,
// per-attribute deviation tallies) and two drift detectors are run
// against the model's QualityProfile baseline — the quality statistics
// frozen on the training table at induction time:
//
//   - a threshold detector on the window's suspicious-rate delta versus
//     the baseline rate, and
//   - a Page-Hinkley cumulative test over the window rate series, which
//     catches slow upward drifts a single-window threshold misses.
//
// When drift fires, the monitor emits a lifecycle Event and — when
// auto-re-induction is enabled — re-induces a successor model from a
// bounded reservoir sample of recently audited rows and publishes it
// through the registry's atomic publish path, so the model lifecycle
// closes without operator intervention: induce → monitor → drift →
// re-induce → monitor. Re-induction runs in a background worker outside
// the per-model lock (worker.go): concurrent audits of a drifting model
// — including in-flight streams — are never blocked while it adapts,
// duplicate drift triggers coalesce into the running worker, and the
// final swap is guarded by (version, createdAt) so a model republished,
// deleted or recreated mid-flight discards the stale candidate instead
// of being clobbered by it.
//
// With Options.StateDir set the lifecycle is also crash-durable
// (persist.go): state commits atomically after sealed windows and
// re-induction outcomes — at once for the first after a quiet second,
// then at most once a second with the newest state, so a crash loses at
// most the last second's windows — and on Close, which loses nothing.
// It is recovered lazily at the next boot — validated against the
// registry so a deleted incarnation's state file is discarded rather than
// resurrected, and degrading to fresh state (never failing the model) on
// corrupt files.
//
// Windows are counted in rows (not wall time) and the reservoir uses a
// seeded deterministic PRNG, so the same sequence of observations always
// yields byte-identical snapshot history — the property the determinism
// tests pin.
package monitor
