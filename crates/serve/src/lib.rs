#![deny(missing_docs)]

//! `dashlat-serve` — the long-running sweep service.
//!
//! The paper's evaluation is a matrix of independent, deterministic
//! simulation cells; this crate turns the one-shot `dashlat sweep` CLI
//! into a daemon that serves that matrix under concurrent traffic. The
//! transport is a deliberately small hand-rolled HTTP/1.1 server over
//! [`std::net`] threads — no async runtime, no new dependencies — because
//! robustness, not throughput, is the point:
//!
//! * **Admission control** — a bounded worker pool drains an explicit
//!   job queue; when the queue is full, submissions are shed with
//!   `429 Too Many Requests` + `Retry-After` instead of accepting
//!   unbounded work ([`server::Server`]).
//! * **Deadlines and cancellation** — every job runs under a
//!   [`dashlat::sweep::SweepControl`]: a client cancel or an expired
//!   wall-clock budget stops the sweep at the next cell boundary, with
//!   every finished cell still committed to the write-ahead journal.
//! * **Content-addressed result cache** — cells are deterministic
//!   functions of `(app, machine config)`, fingerprinted by
//!   [`dashlat::sweep::work_fingerprint`]; repeated cells across jobs
//!   are served from [`cache::ResultCache`] without re-simulating.
//! * **Crash recovery** — on startup the job directory is scanned and
//!   every job is classified complete / resumable / corrupt; interrupted
//!   sweeps resume from their journals automatically and publish logs
//!   byte-identical to an uninterrupted run.
//! * **Graceful shutdown** — SIGTERM/SIGINT ([`signal`]) stops
//!   admission, checkpoints in-flight sweeps at the next cell boundary,
//!   and exits 0; nothing finished is ever lost.
//! * **Fault isolation** — with `--isolate`, each sweep cell runs in a
//!   `dashlat cell` subprocess under a wall-clock timeout, behind a
//!   per-job crash-loop circuit breaker; a crashing or wedged cell
//!   costs one child, never the daemon.
//! * **Client hardening** — a per-connection deadline (slowloris),
//!   header/body size caps, and a connection cap that sheds overload
//!   with `503` + `Retry-After` ([`http`]).
//! * **Torture-tested** — [`torture`] drives a live daemon under seeded
//!   schedules of worker SIGKILLs, injected disk faults, adversarial
//!   client floods ([`chaosclient`]), and mid-run restarts, judging the
//!   wreckage with four service-level oracles and delta-debugging any
//!   failing schedule to a minimal reproducer.
//!
//! The HTTP surface ([`server`]): `GET /healthz`, `GET /readyz`,
//! `POST /jobs`, `GET /jobs`, `GET /jobs/<id>`, `GET /jobs/<id>/log`,
//! `GET /jobs/<id>/events[?after=N&wait=S]` (long poll),
//! `POST /jobs/<id>/cancel`, `POST /shutdown`.
//! Job specs ([`jobs::JobSpec`]) cover the three long-running workloads:
//! figure sweeps, chaos campaigns, and memory-model verification.

pub mod cache;
pub mod chaosclient;
pub mod client;
pub mod http;
pub mod jobs;
pub mod server;
pub mod signal;
pub mod torture;

pub use cache::ResultCache;
pub use chaosclient::ChaosMode;
pub use client::{read_addr_file, request, HttpResponse};
pub use jobs::{JobKind, JobSpec, JobStatus};
pub use server::{ServeConfig, Server};
pub use torture::{run_torture, ServeSchedule, TortureOptions, TortureReport};
