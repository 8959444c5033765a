//! The batched serving engine.
//!
//! Architecture (see DESIGN.md §15 for the full argument):
//!
//! * **Submit side** — [`Engine::submit`] performs admission control
//!   under one mutex: a queue at `queue_capacity` rejects with
//!   [`ServeError::QueueFull`] *before* enqueueing, so memory stays
//!   bounded and overload turns into typed backpressure instead of
//!   latency collapse. Admitted requests carry their enqueue time, an
//!   optional absolute deadline, and a single-use reply channel; the
//!   caller gets a [`Ticket`] to wait on.
//! * **Batch formation** — worker threads pop the queue head and coalesce
//!   same-shape requests behind it (preserving the order of everything
//!   else) into one batch, waiting up to `batch_window_us` past the
//!   head's enqueue time for peers to arrive. A full batch (`max_batch`)
//!   dispatches immediately; `max_batch == 1` never waits.
//! * **Execution** — a batch runs through the model's cached
//!   [`ExecPlan`](ptq_nn::ExecPlan) for its shape:
//!   [`run_batch`](ptq_nn::ExecPlan::run_batch) for real batches, plain
//!   [`run`](ptq_nn::ExecPlan::run) for singletons. `run_batch` executes
//!   each request's tensors independently (no concatenation, no shared
//!   dynamic scales), so every response is bit-identical to an unbatched
//!   run of the same request — batching is a scheduling optimization,
//!   never a numerics change.
//! * **Deadline shedding** — expired requests are answered with
//!   [`ServeError::DeadlineExceeded`] during batch formation, before any
//!   compute is spent on them.
//!
//! Send-safety: workers share one immutable [`QuantizedModel`] behind an
//! `Arc` (its interior mutability is limited to atomic byte counters and
//! the mutex-guarded plan cache); all scheduling state lives in a
//! `Mutex<State>` + `Condvar` pair. The engine is `Send + Sync` by
//! construction and compile-time asserted in `lib.rs`.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::Ordering;
use std::sync::mpsc::{Receiver, Sender, SyncSender};
use std::sync::{mpsc, Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use ptq_core::{EngineSpec, PtqArtifact, QuantizedModel, ServeSpec};
use ptq_nn::{DecodePlan, DecodeState};
use ptq_tensor::Tensor;
use ptq_trace::Level;

use crate::error::ServeError;
use crate::metrics::{EngineStats, Stats};

type Reply = Result<Vec<Tensor>, ServeError>;

/// Handle for one in-flight request; redeem with [`Ticket::wait`].
#[derive(Debug)]
pub struct Ticket {
    rx: Receiver<Reply>,
}

impl Ticket {
    /// Block until the request is answered (outputs, a typed shed/exec
    /// error) — or report [`ServeError::Disconnected`] if the worker side
    /// vanished without replying.
    pub fn wait(self) -> Result<Vec<Tensor>, ServeError> {
        self.rx.recv().unwrap_or(Err(ServeError::Disconnected))
    }
}

/// Handle for one in-flight generation request: a stream of greedy
/// tokens produced one engine step at a time ([`Engine::generate`]).
#[derive(Debug)]
pub struct GenTicket {
    rx: Receiver<Result<f32, ServeError>>,
}

impl GenTicket {
    /// Block for the next token. `None` means the stream ended: the
    /// requested tokens were produced (or the model's window filled), or
    /// an error was already delivered. Errors terminate the stream.
    pub fn next(&self) -> Option<Result<f32, ServeError>> {
        self.rx.recv().ok()
    }

    /// Drain the stream into a vector of token ids, or the first error.
    pub fn collect(self) -> Result<Vec<f32>, ServeError> {
        let mut out = Vec::new();
        while let Some(tok) = self.next() {
            out.push(tok?);
        }
        Ok(out)
    }
}

/// One queued request.
struct Pending {
    inputs: Vec<Tensor>,
    /// Input-shape signature; only same-signature requests share a batch
    /// (they execute through the same [`ptq_nn::ExecPlan`]).
    key: Vec<Vec<usize>>,
    enqueued: Instant,
    deadline: Option<Instant>,
    budget_us: u64,
    tx: SyncSender<Reply>,
}

/// One queued generation session. Between engine steps the whole session
/// lives in the queue: a worker pops it, runs *one* decode step (on the
/// first dispatch, the prompt's `p` tokens through the same step
/// schedule, in blocks of rows), streams the token, and re-enqueues it
/// at the back — so an in-flight generation never starves single-shot
/// traffic and multiple generations interleave fairly.
struct GenSession {
    plan: Arc<DecodePlan>,
    state: DecodeState,
    prompt: Vec<f32>,
    /// Whether the prefill step already ran.
    started: bool,
    /// Last emitted token (the next step's input).
    last: f32,
    /// Tokens still to produce.
    remaining: usize,
    enqueued: Instant,
    deadline: Option<Instant>,
    budget_us: u64,
    tx: Sender<Result<f32, ServeError>>,
}

/// A queue entry: a single-shot request or a resident generation session.
enum Work {
    Single(Pending),
    Gen(Box<GenSession>),
}

/// What a worker pulled off the queue to run next.
enum Dispatch {
    Batch(Vec<Pending>),
    Step(Box<GenSession>),
}

/// Scheduling state guarded by the engine mutex.
struct State {
    queue: VecDeque<Work>,
    shutdown: bool,
}

/// Everything the submit side and the workers share.
struct Shared {
    model: Arc<QuantizedModel>,
    spec: ServeSpec,
    state: Mutex<State>,
    cond: Condvar,
    stats: Stats,
    /// Decode plans per window capacity, shared by all generation
    /// sessions over this model (planning is once per capacity).
    decode_plans: Mutex<HashMap<usize, Arc<DecodePlan>>>,
}

/// Async batched serving engine over a quantized model.
///
/// Construct with [`Engine::new`] (model + [`EngineSpec`]) or
/// [`Engine::from_artifact`] (cold start from a saved `.ptq` file, which
/// carries its own serving section). Submit with [`Engine::submit`] /
/// [`Engine::submit_with_deadline`]; the engine drains its queue and
/// joins its workers on [`Engine::shutdown`] or drop.
pub struct Engine {
    shared: Arc<Shared>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl std::fmt::Debug for Engine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Engine")
            .field("spec", &self.shared.spec)
            .field("workers", &self.workers.len())
            .field("queue_depth", &self.queue_depth())
            .finish()
    }
}

impl Engine {
    /// Start an engine serving `model` under `spec.serving`.
    ///
    /// The model's own [`QuantConfig`](ptq_core::QuantConfig) governs the
    /// arithmetic (formats, storage, kernel path); the spec's serving
    /// section governs scheduling. `workers == 0` resolves to one worker
    /// per available core; `max_batch`/`queue_capacity` of 0 are clamped
    /// to 1 so the engine always makes progress.
    pub fn new(model: QuantizedModel, spec: &EngineSpec) -> Result<Engine, ServeError> {
        Engine::with_serving(model, spec.serving.clone())
    }

    /// Cold-start an engine from a loaded artifact: the stored model is
    /// shared (not re-quantized) and the artifact's persisted serving
    /// section configures scheduling.
    pub fn from_artifact(art: &PtqArtifact) -> Result<Engine, ServeError> {
        Engine::with_serving(art.model.clone(), art.serving.clone())
    }

    fn with_serving(model: QuantizedModel, mut serving: ServeSpec) -> Result<Engine, ServeError> {
        serving.max_batch = serving.max_batch.max(1);
        serving.queue_capacity = serving.queue_capacity.max(1);
        let n_workers = if serving.workers == 0 {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        } else {
            serving.workers
        };
        let shared = Arc::new(Shared {
            model: Arc::new(model),
            spec: serving,
            state: Mutex::new(State {
                queue: VecDeque::new(),
                shutdown: false,
            }),
            cond: Condvar::new(),
            stats: Stats::default(),
            decode_plans: Mutex::new(HashMap::new()),
        });
        let mut workers = Vec::with_capacity(n_workers);
        for i in 0..n_workers {
            let sh = Arc::clone(&shared);
            match std::thread::Builder::new()
                .name(format!("ptq-serve-{i}"))
                .spawn(move || worker_loop(&sh))
            {
                Ok(h) => workers.push(h),
                Err(e) => {
                    let mut engine = Engine { shared, workers };
                    engine.stop();
                    return Err(ServeError::WorkerSpawn {
                        detail: e.to_string(),
                    });
                }
            }
        }
        Ok(Engine { shared, workers })
    }

    /// Submit a request under the spec's default deadline (if any).
    pub fn submit(&self, inputs: Vec<Tensor>) -> Result<Ticket, ServeError> {
        let budget = self
            .shared
            .spec
            .default_deadline_ms
            .map(|ms| Duration::from_millis(ms as u64));
        self.submit_with_deadline(inputs, budget)
    }

    /// Submit a request with an explicit deadline budget (`None` = no
    /// deadline, overriding any spec default). Admission happens here:
    /// a full queue rejects immediately with [`ServeError::QueueFull`].
    pub fn submit_with_deadline(
        &self,
        inputs: Vec<Tensor>,
        budget: Option<Duration>,
    ) -> Result<Ticket, ServeError> {
        let sh = &self.shared;
        let now = Instant::now();
        let key: Vec<Vec<usize>> = inputs.iter().map(|t| t.shape().to_vec()).collect();
        let (tx, rx) = mpsc::sync_channel(1);
        let mut st = lock_state(sh);
        if st.shutdown {
            return Err(ServeError::ShuttingDown);
        }
        if st.queue.len() >= sh.spec.queue_capacity {
            sh.stats.rejected.fetch_add(1, Ordering::Relaxed);
            ptq_trace::counter(Level::Info, "serve.rejected", 1, &[]);
            return Err(ServeError::QueueFull {
                capacity: sh.spec.queue_capacity,
            });
        }
        let budget_us = budget.map(|d| d.as_micros() as u64).unwrap_or(0);
        st.queue.push_back(Work::Single(Pending {
            inputs,
            key,
            enqueued: now,
            deadline: budget.map(|d| now + d),
            budget_us,
            tx,
        }));
        sh.stats.submitted.fetch_add(1, Ordering::Relaxed);
        ptq_trace::counter(Level::Info, "serve.enqueued", 1, &[]);
        ptq_trace::gauge(
            Level::Debug,
            "serve.queue_depth",
            st.queue.len() as f64,
            &[],
        );
        drop(st);
        sh.cond.notify_one();
        Ok(Ticket { rx })
    }

    /// Submit a streaming generation request under the spec's default
    /// deadline (if any): greedy-decode up to `max_new` tokens from
    /// `prompt` through the incremental KV-cache engine
    /// ([`ptq_nn::DecodePlan`]), at window `capacity` (the sequence
    /// length the model was built for). Tokens stream through the
    /// returned [`GenTicket`] as they are produced; the session runs one
    /// decode step per engine dispatch (the first dispatch runs the
    /// prompt through the same schedule) and re-queues behind waiting
    /// traffic, so long generations never monopolize the workers. A
    /// prompt token the model rejects (e.g. an out-of-vocabulary id) ends
    /// the stream with [`ServeError::Exec`] and counts as `failed`.
    ///
    /// The KV-cache format follows the model's
    /// [`KvStorage`](ptq_core::KvStorage) knob; under the default f32
    /// cache every generated token is bit-identical to full-window
    /// recompute.
    pub fn generate(
        &self,
        prompt: Vec<f32>,
        max_new: usize,
        capacity: usize,
    ) -> Result<GenTicket, ServeError> {
        let budget = self
            .shared
            .spec
            .default_deadline_ms
            .map(|ms| Duration::from_millis(ms as u64));
        self.generate_with_deadline(prompt, max_new, capacity, budget)
    }

    /// [`Engine::generate`] with an explicit whole-generation deadline
    /// budget (`None` = no deadline). The deadline covers the entire
    /// stream: a session still queued past it is shed mid-generation
    /// with [`ServeError::DeadlineExceeded`] on the stream.
    pub fn generate_with_deadline(
        &self,
        prompt: Vec<f32>,
        max_new: usize,
        capacity: usize,
        budget: Option<Duration>,
    ) -> Result<GenTicket, ServeError> {
        let sh = &self.shared;
        if max_new == 0 {
            return Err(ServeError::Exec(ptq_nn::PtqError::InvalidTarget {
                detail: "generate: max_new must be at least 1".into(),
            }));
        }
        // Plan (or reuse the plan for) this capacity before admission so
        // non-decoder models fail the submit call, not the stream.
        let plan = {
            let mut plans = sh
                .decode_plans
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            match plans.get(&capacity) {
                Some(p) => Arc::clone(p),
                None => {
                    let p = Arc::new(
                        sh.model
                            .graph
                            .plan_decode(capacity)
                            .map_err(ServeError::Exec)?,
                    );
                    plans.insert(capacity, Arc::clone(&p));
                    p
                }
            }
        };
        let now = Instant::now();
        let state = DecodeState::new(&plan);
        let (tx, rx) = mpsc::channel();
        let mut st = lock_state(sh);
        if st.shutdown {
            return Err(ServeError::ShuttingDown);
        }
        if st.queue.len() >= sh.spec.queue_capacity {
            sh.stats.rejected.fetch_add(1, Ordering::Relaxed);
            ptq_trace::counter(Level::Info, "serve.rejected", 1, &[]);
            return Err(ServeError::QueueFull {
                capacity: sh.spec.queue_capacity,
            });
        }
        let budget_us = budget.map(|d| d.as_micros() as u64).unwrap_or(0);
        st.queue.push_back(Work::Gen(Box::new(GenSession {
            plan,
            state,
            prompt,
            started: false,
            last: 0.0,
            remaining: max_new,
            enqueued: now,
            deadline: budget.map(|d| now + d),
            budget_us,
            tx,
        })));
        sh.stats.submitted.fetch_add(1, Ordering::Relaxed);
        ptq_trace::counter(Level::Info, "serve.gen_enqueued", 1, &[]);
        drop(st);
        sh.cond.notify_one();
        Ok(GenTicket { rx })
    }

    /// Point-in-time serving statistics (exact percentiles).
    pub fn stats(&self) -> EngineStats {
        self.shared.stats.snapshot(self.queue_depth())
    }

    /// Zero the statistics (counters and latency samples). Load
    /// generators call this after warm-up so a measured window starts
    /// from a clean slate; in-flight requests keep executing and are
    /// counted against the new window on completion.
    pub fn reset_stats(&self) {
        self.shared.stats.reset();
    }

    /// Requests currently queued (admitted, not yet dispatched).
    pub fn queue_depth(&self) -> usize {
        lock_state(&self.shared).queue.len()
    }

    /// The resolved serving configuration (after clamping and worker
    /// resolution the `workers` field still holds the requested value).
    pub fn spec(&self) -> &ServeSpec {
        &self.shared.spec
    }

    /// The served model.
    pub fn model(&self) -> &QuantizedModel {
        &self.shared.model
    }

    /// Stop admitting, drain the queue, join all workers. Requests still
    /// queued are executed (or shed on deadline) before workers exit, so
    /// every admitted request gets exactly one reply.
    pub fn shutdown(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        {
            let mut st = lock_state(&self.shared);
            st.shutdown = true;
        }
        self.shared.cond.notify_all();
        for h in self.workers.drain(..) {
            // A worker that panicked already poisoned nothing we rely on
            // (all locks recover via `PoisonError::into_inner`); its
            // requests surface as `Disconnected`, so joining best-effort
            // keeps shutdown itself panic-free.
            let _ = h.join();
        }
    }
}

impl Drop for Engine {
    fn drop(&mut self) {
        self.stop();
    }
}

fn lock_state(sh: &Shared) -> MutexGuard<'_, State> {
    sh.state.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Worker: pull the next dispatch (blocking), run it, reply; exit when
/// shut down with an empty queue.
fn worker_loop(sh: &Shared) {
    loop {
        match next_dispatch(sh) {
            Some(Dispatch::Batch(batch)) => run_and_reply(sh, batch),
            Some(Dispatch::Step(gen)) => run_gen_step(sh, gen),
            None => return,
        }
    }
}

/// Blocks until work is ready. `None` means shutdown-and-drained.
fn next_dispatch(sh: &Shared) -> Option<Dispatch> {
    let mut st = lock_state(sh);
    loop {
        let now = Instant::now();
        shed_expired(sh, &mut st, now);
        let (head_key, flush_at) = match st.queue.front() {
            Some(Work::Gen(_)) => {
                // Generation steps never batch and never wait for peers:
                // pop the session and run exactly one step.
                let Some(Work::Gen(g)) = st.queue.pop_front() else {
                    continue;
                };
                let more = !st.queue.is_empty();
                drop(st);
                if more {
                    sh.cond.notify_one();
                }
                return Some(Dispatch::Step(g));
            }
            Some(Work::Single(head)) => (
                head.key.clone(),
                head.enqueued + Duration::from_micros(sh.spec.batch_window_us as u64),
            ),
            None => {
                if st.shutdown {
                    return None;
                }
                st = sh.cond.wait(st).unwrap_or_else(PoisonError::into_inner);
                continue;
            }
        };
        let peers = st
            .queue
            .iter()
            .filter(|w| matches!(w, Work::Single(p) if p.key == head_key))
            .count();
        let dispatch =
            peers >= sh.spec.max_batch || sh.spec.max_batch == 1 || now >= flush_at || st.shutdown;
        if dispatch {
            let batch = take_batch(&mut st.queue, &head_key, sh.spec.max_batch);
            ptq_trace::gauge(
                Level::Debug,
                "serve.queue_depth",
                st.queue.len() as f64,
                &[],
            );
            let more = !st.queue.is_empty();
            drop(st);
            if more {
                // Let another worker start on the new head immediately.
                sh.cond.notify_one();
            }
            return Some(Dispatch::Batch(batch));
        }
        // Wait for peers until the head's latency budget runs out; a
        // submit or shutdown notification re-evaluates early.
        let (guard, _timed_out) = sh
            .cond
            .wait_timeout(st, flush_at.saturating_duration_since(now))
            .unwrap_or_else(PoisonError::into_inner);
        st = guard;
    }
}

/// Answer and remove every queued request whose deadline has passed —
/// shed before compute, never after. Generation sessions carry a
/// whole-stream deadline: an expired one is shed mid-generation.
fn shed_expired(sh: &Shared, st: &mut State, now: Instant) {
    let mut i = 0;
    while i < st.queue.len() {
        let expired = st
            .queue
            .get(i)
            .and_then(|w| match w {
                Work::Single(p) => p.deadline,
                Work::Gen(g) => g.deadline,
            })
            .is_some_and(|d| d <= now);
        if !expired {
            i += 1;
            continue;
        }
        if let Some(w) = st.queue.remove(i) {
            sh.stats.shed.fetch_add(1, Ordering::Relaxed);
            ptq_trace::counter(Level::Info, "serve.deadline_shed", 1, &[]);
            let (enqueued, budget_us) = match &w {
                Work::Single(p) => (p.enqueued, p.budget_us),
                Work::Gen(g) => (g.enqueued, g.budget_us),
            };
            let waited_us = now.duration_since(enqueued).as_micros() as u64;
            let err = ServeError::DeadlineExceeded {
                waited_us,
                budget_us,
            };
            match w {
                Work::Single(p) => drop(p.tx.send(Err(err))),
                Work::Gen(g) => drop(g.tx.send(Err(err))),
            }
        }
    }
}

/// Remove up to `max_batch` single-shot requests matching `key` from the
/// queue front inward, preserving the relative order of everything left
/// behind (queued generation sessions included).
fn take_batch(queue: &mut VecDeque<Work>, key: &[Vec<usize>], max_batch: usize) -> Vec<Pending> {
    let mut batch = Vec::new();
    let mut i = 0;
    while i < queue.len() && batch.len() < max_batch {
        if queue
            .get(i)
            .is_some_and(|w| matches!(w, Work::Single(p) if p.key == key))
        {
            if let Some(Work::Single(p)) = queue.remove(i) {
                batch.push(p);
            }
        } else {
            i += 1;
        }
    }
    batch
}

/// Run one decode step of a generation session (on its first dispatch the
/// prefill: the prompt through the step schedule, then the cache seal),
/// stream the token, and re-enqueue the session at the back of
/// the queue unless it finished. Dropping the session closes its stream —
/// that is how [`GenTicket`] observes completion.
fn run_gen_step(sh: &Shared, mut g: Box<GenSession>) {
    let model = &sh.model;
    let mut hook = model.hook();
    let logits = if g.started {
        g.state.step(&g.plan, &model.graph, g.last, &mut hook)
    } else {
        g.started = true;
        let prompt = Tensor::from_slice(&g.prompt);
        g.prompt = Vec::new();
        g.state.prefill(&g.plan, &model.graph, &prompt, &mut hook)
    };
    let logits = match logits {
        Ok(l) => l,
        Err(e) => {
            sh.stats.failed.fetch_add(1, Ordering::Relaxed);
            ptq_trace::counter(Level::Info, "serve.exec_failed", 1, &[]);
            let _ = g.tx.send(Err(ServeError::Exec(e)));
            return;
        }
    };
    let token = logits.argmax() as f32;
    ptq_trace::counter(Level::Info, "serve.gen_tokens", 1, &[]);
    g.remaining -= 1;
    g.last = token;
    // A dropped GenTicket cancels the rest of the stream.
    let listening = g.tx.send(Ok(token)).is_ok();
    let window_full = g.state.pos() >= g.plan.seq();
    if g.remaining == 0 || window_full || !listening {
        let lat_us = g.enqueued.elapsed().as_micros() as u64;
        sh.stats.record_batch(&[lat_us]);
        ptq_trace::counter(Level::Info, "serve.completed", 1, &[]);
        return; // drop closes the stream
    }
    let mut st = lock_state(sh);
    st.queue.push_back(Work::Gen(g));
    drop(st);
    sh.cond.notify_one();
}

/// Execute a formed batch and deliver every reply. Single requests take
/// the plain `run` path (no parallel-iterator overhead); real batches go
/// through `run_batch`, whose per-request execution is bit-identical to
/// sequential runs.
fn run_and_reply(sh: &Shared, mut batch: Vec<Pending>) {
    let model = &sh.model;
    let plan = {
        let first = match batch.first() {
            Some(p) => p,
            None => return,
        };
        match model.plans.plan_for(&model.graph, &first.inputs) {
            Ok(p) => p,
            Err(e) => {
                for p in batch {
                    fail(sh, &p, e.clone());
                }
                return;
            }
        }
    };
    let mut sp = ptq_trace::span(Level::Info, "serve.batch");
    if sp.active() {
        sp.record_int("requests", batch.len() as i64);
    }
    // Successful outputs are accounted *before* their replies are sent:
    // once a caller's `Ticket::wait` returns, the request is already
    // visible in `Engine::stats` (a load generator that redeems every
    // ticket and then snapshots sees consistent numbers).
    let mut done: Vec<(Pending, Vec<Tensor>)> = Vec::with_capacity(batch.len());
    if batch.len() == 1 {
        if let Some(p) = batch.pop() {
            let mut hook = model.hook();
            match plan.run(&model.graph, &p.inputs, &mut hook) {
                Ok(out) => done.push((p, out)),
                Err(e) => fail(sh, &p, e),
            }
        }
    } else {
        let inputs: Vec<Vec<Tensor>> = batch
            .iter_mut()
            .map(|p| std::mem::take(&mut p.inputs))
            .collect();
        match plan.run_batch(&model.graph, &inputs, || model.hook()) {
            Ok(outs) => {
                for (p, (out, _hook)) in batch.into_iter().zip(outs) {
                    done.push((p, out));
                }
            }
            Err(e) => {
                for p in &batch {
                    fail(sh, p, e.clone());
                }
            }
        }
    }
    if !done.is_empty() {
        let lat_us: Vec<u64> = done
            .iter()
            .map(|(p, _)| p.enqueued.elapsed().as_micros() as u64)
            .collect();
        sh.stats.record_batch(&lat_us);
        ptq_trace::counter(Level::Info, "serve.completed", lat_us.len() as u64, &[]);
        for (p, out) in done {
            let _ = p.tx.send(Ok(out));
        }
    }
}

/// Answer one request with an execution error.
fn fail(sh: &Shared, p: &Pending, e: ptq_nn::PtqError) {
    sh.stats.failed.fetch_add(1, Ordering::Relaxed);
    ptq_trace::counter(Level::Info, "serve.exec_failed", 1, &[]);
    let _ = p.tx.send(Err(ServeError::Exec(e)));
}
