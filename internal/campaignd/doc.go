// Package campaignd is the multi-tenant campaign service behind cmd/spad:
// a long-running server that accepts manifest-based campaign submissions
// from many tenants, admission-controls them (per-tenant queue and
// in-flight caps, HTTP 429 on overload), schedules them onto a shared
// worker fleet with weighted deficit-round-robin fairness, and journals
// every state transition so a restarted server resumes incomplete
// campaigns exactly where they left off.
//
// The package splits into four layers:
//
//   - Spec/Record (spec.go, record.go): what a tenant submits — the
//     existing manifest format plus tenant/priority metadata — and the
//     journaled campaign state machine
//     (queued → running → done/failed/cancelled).
//   - journal (journal.go): crash-safe persistence of Records through
//     population.WriteFileAtomic, one directory per campaign holding
//     campaign.json next to the runner's population/report artifacts, so
//     the campaign's resume state and its data live and die together.
//   - scheduler (sched.go): deficit round robin across tenants — each
//     tenant queue is FIFO, credit accrues in simulated-run units
//     weighted by priority, and a campaign starts when its tenant's
//     deficit covers its cost. No tenant starves: the active list is a
//     FIFO of tenants, so every tenant with queued work is visited each
//     rotation.
//   - Service/HTTP (service.go, http.go): the orchestration loop tying
//     admission, scheduling, execution through manifest.Runner over one
//     shared dist.Coordinator, journaling, cancellation, and drain
//     together, exposed as an HTTP/JSON API.
package campaignd
