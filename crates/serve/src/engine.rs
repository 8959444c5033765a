//! The serving engine: a bounded queue in front of a worker pool.
//!
//! Architecture (see DESIGN.md §15 for the full argument):
//!
//! * **Submit side** — [`Engine::submit`] / [`Engine::generate`] perform
//!   admission control under one mutex: a queue at `queue_capacity`
//!   rejects with [`ServeError::QueueFull`] *before* enqueueing, so memory
//!   stays bounded and overload turns into typed backpressure instead of
//!   latency collapse. An admitted entry carries its enqueue time, an
//!   optional absolute deadline, and its reply channel; the caller gets a
//!   [`Ticket`] / [`GenTicket`] to wait on.
//! * **Dispatch** — a worker sheds expired entries, pops the queue head,
//!   runs it and replies at once. The worker pool is the only
//!   request-level parallelism: single-shot requests are never coalesced,
//!   a reply never waits for another request, and nothing waits for peers
//!   to arrive.
//! * **Execution** — a single-shot request runs through the model's cached
//!   [`ExecPlan`](ptq_nn::ExecPlan) for its shape
//!   ([`run`](ptq_nn::ExecPlan::run)); a generation session runs one
//!   decode step (first its prefill) and re-queues; a step takes along a
//!   share of its plan's steps queued then, one row each in one pass, when
//!   the model's rows are independent. Either way the response is
//!   bit-identical to running the same request directly — the engine
//!   decides *when* a request runs, never what it computes.
//! * **Deadline shedding** — expired requests are answered with
//!   [`ServeError::DeadlineExceeded`] under the dispatch lock, before
//!   any pop, so no compute is spent on them.
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
use ptq_nn::{DecodePlan, DecodeState, PtqError, StepBuffers, PREFILL_ROWS};
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

/// One generation session. Between engine steps the whole session lives
/// in the queue: a worker pops it, runs *one* decode step (on the first
/// dispatch, the prompt through the same step schedule, in blocks of
/// rows), streams the token, and re-enqueues it at the back.
struct GenSession {
    plan: Arc<DecodePlan>,
    /// Cache and position, empty until the first dispatch (the prefill),
    /// so a `generate` the queue rejects has allocated nothing.
    state: DecodeState,
    prompt: Vec<f32>,
    /// Last emitted token (the next step's input).
    last: f32,
    /// Tokens still to produce.
    remaining: usize,
    tx: Sender<Result<f32, ServeError>>,
}

/// What a queue entry asks a worker to do.
enum Job {
    /// One forward pass, one reply.
    Single {
        inputs: Vec<Tensor>,
        tx: SyncSender<Reply>,
    },
    /// The next step of a resident generation session.
    Gen(Box<GenSession>),
}

impl Job {
    /// Answer with an error; a generation's stream ends with it.
    fn fail(&self, e: ServeError) {
        match self {
            Job::Single { tx, .. } => drop(tx.send(Err(e))),
            Job::Gen(g) => drop(g.tx.send(Err(e))),
        }
    }
}

/// A queue entry. A generation session keeps its enqueue time and its
/// whole-stream deadline across re-queues.
struct Work {
    enqueued: Instant,
    deadline: Option<Instant>,
    budget_us: u64,
    job: Job,
}

/// Scheduling state guarded by the engine mutex.
#[derive(Default)]
struct State {
    queue: VecDeque<Work>,
    shutdown: bool,
    /// Entries the workers are running now.
    running: usize,
}

/// Everything the submit side and the workers share.
struct Shared {
    model: Arc<QuantizedModel>,
    spec: ServeSpec,
    /// Resolved worker count.
    workers: usize,
    state: Mutex<State>,
    cond: Condvar,
    stats: Stats,
    /// Decode plans per window capacity, shared by all generation
    /// sessions over this model (planning is once per capacity).
    decode_plans: Mutex<HashMap<usize, Arc<DecodePlan>>>,
}

/// Async serving engine over a quantized model.
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
    /// arithmetic (formats, storage); the spec's serving
    /// section governs scheduling. `workers == 0` resolves to one worker
    /// per available core; a `queue_capacity` of 0 is clamped to 1 so the
    /// engine always makes progress. A serving section that
    /// [`ServeSpec::validate`] refuses (more than
    /// [`MAX_WORKERS`](ptq_core::MAX_WORKERS) workers) is
    /// [`ServeError::InvalidSpec`] before any thread starts.
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
        serving.validate().map_err(ServeError::InvalidSpec)?;
        serving.queue_capacity = serving.queue_capacity.max(1);
        let n_workers = match serving.workers {
            0 => std::thread::available_parallelism().map_or(1, |n| n.get()),
            n => n,
        };
        let shared = Arc::new(Shared {
            model: Arc::new(model),
            spec: serving,
            workers: n_workers,
            state: Mutex::new(State::default()),
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

    /// The spec's default deadline budget, if any.
    fn default_budget(&self) -> Option<Duration> {
        self.shared
            .spec
            .default_deadline_ms
            .map(|ms| Duration::from_millis(ms as u64))
    }

    /// Admission, the one way into the queue: a full queue rejects
    /// immediately with [`ServeError::QueueFull`]; an admitted job is
    /// counted, traced under `event` and handed to one worker.
    fn admit(
        &self,
        budget: Option<Duration>,
        job: Job,
        event: &'static str,
    ) -> Result<(), ServeError> {
        let sh = &self.shared;
        let now = Instant::now();
        let mut st = lock(&sh.state);
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
        st.queue.push_back(Work {
            enqueued: now,
            deadline: budget.map(|d| now + d),
            budget_us: budget.map_or(0, |d| d.as_micros() as u64),
            job,
        });
        sh.stats.submitted.fetch_add(1, Ordering::Relaxed);
        ptq_trace::counter(Level::Info, event, 1, &[]);
        ptq_trace::gauge(
            Level::Debug,
            "serve.queue_depth",
            st.queue.len() as f64,
            &[],
        );
        drop(st);
        sh.cond.notify_one();
        Ok(())
    }

    /// Submit a request under the spec's default deadline (if any).
    pub fn submit(&self, inputs: Vec<Tensor>) -> Result<Ticket, ServeError> {
        self.submit_with_deadline(inputs, self.default_budget())
    }

    /// Submit a request with an explicit deadline budget (`None` = no
    /// deadline, overriding any spec default). Admission happens here:
    /// a full queue rejects immediately with [`ServeError::QueueFull`].
    pub fn submit_with_deadline(
        &self,
        inputs: Vec<Tensor>,
        budget: Option<Duration>,
    ) -> Result<Ticket, ServeError> {
        let (tx, rx) = mpsc::sync_channel(1);
        self.admit(budget, Job::Single { inputs, tx }, "serve.enqueued")?;
        Ok(Ticket { rx })
    }

    /// Submit a streaming generation request under the spec's default
    /// deadline (if any): greedy-decode up to `max_new` tokens from
    /// `prompt` through the incremental KV-cache engine
    /// ([`ptq_nn::DecodePlan`]), at window `capacity` (the sequence
    /// length the model was built for). Tokens stream through the
    /// returned [`GenTicket`] as they are produced; the session runs one
    /// decode step per engine dispatch (the first runs the prompt) and
    /// re-queues behind waiting traffic. An empty prompt, or one longer
    /// than `capacity`, is rejected here; a prompt token the model rejects
    /// (e.g. an out-of-vocabulary id) ends the stream with
    /// [`ServeError::Exec`] and counts as `failed`. The KV-cache format
    /// follows the model's [`KvStorage`](ptq_core::KvStorage); under the
    /// default f32 cache every token is bit-identical to full-window
    /// recompute, and to a solo [`DecodeSession`](ptq_core::DecodeSession).
    pub fn generate(
        &self,
        prompt: Vec<f32>,
        max_new: usize,
        capacity: usize,
    ) -> Result<GenTicket, ServeError> {
        self.generate_with_deadline(prompt, max_new, capacity, self.default_budget())
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
            return Err(ServeError::Exec(PtqError::InvalidTarget {
                detail: "generate: max_new must be at least 1".into(),
            }));
        }
        // Plan (or reuse the plan for) this capacity before admission so
        // non-decoder models fail the submit call, not the stream.
        let plan = {
            let mut plans = lock(&sh.decode_plans);
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
        if prompt.is_empty() || prompt.len() > capacity {
            let (node, n) = ("generate".into(), prompt.len());
            let detail = format!("{n} prompt tokens, window {capacity}");
            return Err(ServeError::Exec(PtqError::InvalidInput { node, detail }));
        }
        let (tx, rx) = mpsc::channel();
        let session = GenSession {
            plan,
            state: DecodeState::default(),
            prompt,
            last: 0.0,
            remaining: max_new,
            tx,
        };
        self.admit(budget, Job::Gen(Box::new(session)), "serve.gen_enqueued")?;
        Ok(GenTicket { rx })
    }

    /// Point-in-time serving statistics (exact percentiles).
    pub fn stats(&self) -> EngineStats {
        self.shared.stats.snapshot(self.queue_depth())
    }

    /// Requests currently queued (admitted, not yet dispatched).
    pub fn queue_depth(&self) -> usize {
        lock(&self.shared.state).queue.len()
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
        lock(&self.shared.state).shutdown = true;
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

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Worker: pop the queue head (blocking), run it, reply; exit when shut
/// down with an empty queue. A finished entry is dropped, which closes
/// its channel — that is how a [`GenTicket`] observes the end of its
/// stream.
fn worker_loop(sh: &Shared) {
    // Every decode pass this worker runs, of any session, runs in these.
    let mut bufs = StepBuffers::default();
    // The last dispatch's sessions that go on, and its entry count.
    let mut done = (Vec::new(), 0);
    while let Some(mut works) = next_work(sh, done) {
        let taken = works.len();
        let outcome = match &works[0].job {
            Job::Single { inputs, tx } => run_single(sh, inputs, tx, works[0].enqueued),
            Job::Gen(_) => run_gen(sh, &mut works, &mut bufs),
        };
        let go_on = outcome.unwrap_or_else(|e| {
            for work in &works {
                sh.stats.failed.fetch_add(1, Ordering::Relaxed);
                ptq_trace::counter(Level::Info, "serve.exec_failed", 1, &[]);
                work.job.fail(ServeError::Exec(e.clone()));
            }
            Vec::new()
        });
        let mut go_on = go_on.into_iter();
        works.retain(|_| go_on.next() == Some(true));
        done = (works, taken);
    }
}

/// Re-queues the worker's last sessions at the back, then blocks until the
/// queue has a head to run. `None` means shutdown-and-drained. A worker
/// sleeps only on an empty queue, every admission notifies one worker and
/// a pop that leaves entries queued notifies one more, so no entry waits
/// while a worker idles.
fn next_work(sh: &Shared, (requeue, ran): (Vec<Work>, usize)) -> Option<Vec<Work>> {
    let mut st = lock(&sh.state);
    st.running -= ran;
    st.queue.extend(requeue);
    loop {
        shed_expired(sh, &mut st, Instant::now());
        if let Some(head) = st.queue.pop_front() {
            let works = gather(sh, &mut st, head);
            st.running += works.len();
            if !st.queue.is_empty() {
                sh.cond.notify_one();
            }
            let depth = st.queue.len() as f64;
            ptq_trace::gauge(Level::Debug, "serve.queue_depth", depth, &[]);
            return Some(works);
        }
        if st.shutdown {
            return None;
        }
        st = sh.cond.wait(st).unwrap_or_else(PoisonError::into_inner);
    }
}

/// `head`, and when it is a generation step of a model whose rows are
/// independent, the first of its plan's other steps queued now: a share of
/// `⌈(g + r) / workers⌉` of those `g` steps, `r` the entries the other
/// workers are running — so live steps split evenly over the workers, and
/// one does not just take its own rows back — at most [`PREFILL_ROWS`].
/// Entries left behind keep their order.
fn gather(sh: &Shared, st: &mut State, head: Work) -> Vec<Work> {
    let step = |w: &Work| match &w.job {
        Job::Gen(g) if g.state.cache().is_some() => Some(Arc::as_ptr(&g.plan)),
        _ => None,
    };
    let mut works = vec![head];
    let Some(plan) = step(&works[0]).filter(|_| sh.model.config.row_independent_acts()) else {
        return works;
    };
    let peer = |w: &Work| step(w) == Some(plan);
    let g = 1 + st.queue.iter().filter(|w| peer(w)).count();
    let (share, mut i) = ((g + st.running).div_ceil(sh.workers).min(PREFILL_ROWS), 0);
    while works.len() < share && i < st.queue.len() {
        match peer(&st.queue[i]) {
            true => works.extend(st.queue.remove(i)),
            false => i += 1,
        }
    }
    works
}

/// Answer and remove every queued entry whose deadline has passed — shed
/// before compute, never after. Generation sessions carry a whole-stream
/// deadline: an expired one is shed mid-generation.
fn shed_expired(sh: &Shared, st: &mut State, now: Instant) {
    st.queue.retain(|w| {
        if w.deadline.is_none_or(|d| d > now) {
            return true;
        }
        sh.stats.shed.fetch_add(1, Ordering::Relaxed);
        ptq_trace::counter(Level::Info, "serve.deadline_shed", 1, &[]);
        w.job.fail(ServeError::DeadlineExceeded {
            waited_us: now.duration_since(w.enqueued).as_micros() as u64,
            budget_us: w.budget_us,
        });
        false
    });
}

/// Run one single-shot request through its shape's cached plan and reply.
fn run_single(
    sh: &Shared,
    inputs: &[Tensor],
    tx: &SyncSender<Reply>,
    enqueued: Instant,
) -> Result<Vec<bool>, PtqError> {
    let model = &sh.model;
    let plan = model.plans.plan_for(&model.graph, inputs)?;
    let mut sp = ptq_trace::span(Level::Info, "serve.batch");
    if sp.active() {
        sp.record_int("requests", 1);
    }
    let out = plan.run(&model.graph, inputs, &mut model.hook())?;
    // Accounted *before* the reply is sent: once a caller's
    // `Ticket::wait` returns, the request is already visible in
    // `Engine::stats` (a load generator that redeems every ticket and
    // then snapshots sees consistent numbers).
    sh.stats.record(enqueued.elapsed().as_micros() as u64);
    ptq_trace::counter(Level::Info, "serve.completed", 1, &[]);
    let _ = tx.send(Ok(out));
    Ok(vec![false])
}

/// Run the gathered sessions' next decode step as one pass (a lone
/// session's first dispatch: its prefill) and stream each its token; `true`
/// re-enqueues a session, `false` ends it — its tokens produced, its window
/// full or its [`GenTicket`] dropped (which cancels that stream only).
fn run_gen(sh: &Shared, works: &mut [Work], bufs: &mut StepBuffers) -> Result<Vec<bool>, PtqError> {
    let (graph, mut hook) = (&sh.model.graph, sh.model.hook());
    let mut gens: Vec<_> = works
        .iter_mut()
        .filter_map(|w| match &mut w.job {
            Job::Gen(g) => Some((&mut **g, w.enqueued)),
            Job::Single { .. } => None,
        })
        .collect();
    let plan = Arc::clone(&gens[0].0.plan);
    let logits = match &mut gens[..] {
        [(g, _)] if g.state.cache().is_none() => {
            let prompt = Tensor::from_slice(&std::mem::take(&mut g.prompt));
            vec![g.state.prefill(&plan, graph, bufs, &prompt, &mut hook)?]
        }
        gens => {
            let mut rows: Vec<_> = gens
                .iter_mut()
                .map(|(g, _)| (&mut g.state, g.last))
                .collect();
            DecodeState::step_many(&plan, graph, bufs, &mut rows, &mut hook)?;
            (0..rows.len()).map(|r| bufs.logits(&plan, r)).collect()
        }
    };
    let emit = |((g, enqueued), logits): ((&mut GenSession, Instant), Tensor)| {
        let token = logits.argmax() as f32;
        ptq_trace::counter(Level::Info, "serve.gen_tokens", 1, &[]);
        g.remaining -= 1;
        g.last = token;
        let listening = g.tx.send(Ok(token)).is_ok();
        if g.remaining == 0 || g.state.pos() >= g.plan.seq() || !listening {
            sh.stats.record(enqueued.elapsed().as_micros() as u64);
            ptq_trace::counter(Level::Info, "serve.completed", 1, &[]);
            return false;
        }
        true
    };
    Ok(gens.into_iter().zip(logits).map(emit).collect())
}
