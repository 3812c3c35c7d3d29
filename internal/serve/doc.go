// Package serve exposes the experiment engine as a long-lived,
// multi-tenant HTTP/JSON sweep service — the composition of the
// engine's singleflight deduplication (internal/exper), context-aware
// sessions (internal/pipeline) and the persistent result store
// (internal/store) into a server that many clients share.
//
// A Server accepts declarative sweep specs (exper.SweepSpec) over
// POST /v1/sweeps and turns each into a Job: a unit of scheduled work
// with a tenant, an SLO class, and a streamed progress history. A
// submission body over 1 MiB is rejected with 413, and ListenAndServe
// gives clients a fixed time to send their request headers. Jobs run
// on a bounded scheduler:
//
//   - Classes. Critical jobs dequeue ahead of sheddable ahead of batch.
//     Every class has a bounded wait queue; a full queue rejects with
//     429 + Retry-After. Non-critical submissions additionally shed —
//     are rejected with 429 — whenever the critical queue is full, so
//     interactive load pushes bulk load out instead of queueing behind
//     it.
//   - Tenants. At most Config.TenantJobs jobs per tenant run at once;
//     a tenant at its limit is skipped in FIFO order, not blocked head
//     of line, so one tenant cannot monopolize the worker slots.
//   - Deduplication. Jobs execute their cells through one shared
//     exper.Runner, so identical (config, benchmark, scale) cells —
//     within a job, across concurrent jobs, or across tenants — are
//     simulated exactly once per process, and at most once ever when a
//     persistent store is attached. The second client asking for a
//     sweep that is already running simply waits on the same
//     singleflight flights.
//
// Progress is observable two ways: polling (GET /v1/jobs/{id} returns
// the job's state, cell counts and, on completion, the result) and
// streaming (GET /v1/jobs/{id}/events is a Server-Sent-Events feed of
// the job's monotonically numbered event history — queued, start, one
// cell event per completed cell, optional interval telemetry from the
// engine's observer fan-out, and a terminal done/error/canceled event
// carrying the result payload). Reconnecting clients resume with the
// standard Last-Event-ID header.
//
// GET /healthz reports liveness (503 while draining) and GET /metrics
// exposes the engine's exper.Stats snapshot plus queue depths per
// class and job-state counts as JSON.
//
// Shutdown is graceful: Server.Shutdown (wired to SIGINT/SIGTERM by
// the contopt serve command) stops admission, cancels queued jobs, and
// drains running jobs; when the drain context expires first, the jobs'
// contexts are canceled and the simulations abort through the same
// cancellation seams Ctrl-C uses in the CLI.
package serve
