//! [`RouterLlm`]: a composite multi-backend [`LlmClient`].
//!
//! ZeroED's cost case assumes every request lands on one healthy backbone;
//! a production deployment has several (replicas of one model behind
//! different endpoints, or mirrored deployments across zones), each with its
//! own latency profile, failure modes and concurrency budget. The router fans
//! requests across N registered backends and keeps the pipeline's contract
//! intact: **routing must never change a detection result**, only who serves
//! it and how fast.
//!
//! ## Routing discipline
//!
//! Every request is reduced to a 64-bit *fingerprint* (request kind + rendered
//! prompt + hidden-state salt, hashed with the [`RequestKey`] scheme). All
//! routing decisions are pure functions of that fingerprint and the current
//! breaker state:
//!
//! 1. **Primary selection** — the fingerprint picks a backend from the
//!    currently admissible set (circuit-closed, or tripped-but-due-for-probe),
//!    spreading load deterministically.
//! 2. **Deterministic failover** — each candidate is probed through
//!    [`LlmClient::injected_fault`] *before* execution; a backend scheduled to
//!    error or time out is skipped (its breaker charged, timeouts paying their
//!    deadline) and the walk continues in registration order. If every
//!    candidate faults, the primary executes anyway (*fail-open*): a request
//!    is never lost and never duplicated.
//! 3. **Hedging** — when the selected backend sits in its latency slow-tail,
//!    and the hedge policy is enabled, a second backend is fired after the
//!    observed latency-percentile deadline. The first valid response wins; the
//!    loser is cancelled and its request cost is charged to that backend's
//!    `hedge_waste` ledger line instead of the useful-token ledger. Exactly
//!    one backend's client executes per request either way, which is what
//!    makes token ledgers reconcile exactly:
//!    `sequential total = Σ per-backend useful tokens + cache savings`, with
//!    `hedge_waste` reported separately as the price of the latency win.
//! 4. **Circuit breaking** — consecutive faults trip a backend open for a
//!    fixed number of routed requests (a deterministic request-counter clock,
//!    not wall time); the first request after the cooldown probes it, and a
//!    failed probe re-trips.
//!
//! Because fault schedules key off the request salt (see
//! [`zeroed_llm::FaultSchedule`]), the entire decision tree is reproducible:
//! the router conformance suite replays every fault schedule and asserts
//! routed masks are bit-identical to a single-backend sequential oracle.
//!
//! The router is an ordinary [`LlmClient`], so [`crate::CachedLlm`] stacks on
//! top of it unchanged (cache hits skip routing entirely) and the pipeline
//! runs on it without modification.

use crate::key::RequestKey;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use zeroed_llm::{count_tokens, Budget, FaultKind, LlmClient, Request, Response, TokenLedger};
use zeroed_obs::{current_id, EventKind, TraceRecorder};

/// Per-backend routing policy.
#[derive(Debug, Clone)]
pub struct BackendConfig {
    /// Display name for stats and ledgers (defaults to `backend-<i>`).
    pub name: String,
    /// Maximum concurrent in-flight requests on this backend; `0` means
    /// unlimited. Models a per-endpoint serving-concurrency budget.
    pub budget: usize,
}

impl BackendConfig {
    /// The default policy for backend `index`.
    pub fn numbered(index: usize) -> Self {
        Self {
            name: format!("backend-{index}"),
            budget: 0,
        }
    }
}

/// When and how a second backend is hedged in.
#[derive(Debug, Clone, Copy)]
pub struct HedgePolicy {
    /// Master switch.
    pub enabled: bool,
    /// Latency percentile of observed request latencies that sets the hedge
    /// deadline (classic tail-latency hedging fires at p95).
    pub percentile: f64,
    /// Floor (and cold-start value, before enough samples exist) for the
    /// hedge deadline, in milliseconds.
    pub min_deadline_ms: f64,
}

impl Default for HedgePolicy {
    fn default() -> Self {
        Self {
            enabled: true,
            percentile: 0.95,
            min_deadline_ms: 25.0,
        }
    }
}

/// Circuit-breaker thresholds, clocked by routed-request count so breaker
/// behaviour is reproducible (wall-clock cooldowns are not).
#[derive(Debug, Clone, Copy)]
pub struct BreakerPolicy {
    /// Consecutive faults that trip a backend's breaker open.
    pub failure_threshold: u32,
    /// Routed requests that must pass before a tripped backend is probed
    /// again (half-open).
    pub cooldown_requests: u64,
}

impl Default for BreakerPolicy {
    fn default() -> Self {
        Self {
            failure_threshold: 4,
            cooldown_requests: 32,
        }
    }
}

/// The full router configuration, passed to [`RouterLlm::new`] together with
/// the backends it routes across.
#[derive(Debug, Clone)]
pub struct RouterConfig {
    /// One entry per registered backend (padded with
    /// [`BackendConfig::numbered`] defaults if shorter than the client list).
    pub backends: Vec<BackendConfig>,
    /// Hedged-request policy.
    pub hedge: HedgePolicy,
    /// Circuit-breaker thresholds.
    pub breaker: BreakerPolicy,
    /// Deadline a timed-out candidate costs before failover, in milliseconds.
    pub timeout_ms: f64,
    /// Multiplier for the router's own simulated waits (timeout deadlines and
    /// hedge-fire delays); `0.0` disables sleeping, mirroring
    /// `SimLlm::with_latency_scale`.
    pub latency_scale: f64,
}

impl RouterConfig {
    /// A default configuration for `n` backends.
    pub fn for_backends(n: usize) -> Self {
        Self {
            backends: (0..n).map(BackendConfig::numbered).collect(),
            hedge: HedgePolicy::default(),
            breaker: BreakerPolicy::default(),
            timeout_ms: 50.0,
            latency_scale: 0.0,
        }
    }
}

/// Activity of one backend, in a [`RouterStats`] snapshot.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BackendStats {
    /// Backend display name.
    pub name: String,
    /// Requests this backend executed (and won).
    pub requests: u64,
    /// Prompt tokens of executed requests.
    pub input_tokens: u64,
    /// Completion tokens of executed requests.
    pub output_tokens: u64,
    /// Hedged requests fired *to* this backend.
    pub hedges_fired: u64,
    /// Hedged races this backend won.
    pub hedges_won: u64,
    /// Tokens charged to this backend's cancelled (losing) hedge calls.
    pub hedge_waste_tokens: u64,
    /// Injected hard errors observed while probing this backend.
    pub faults_error: u64,
    /// Injected timeouts observed while probing this backend.
    pub faults_timeout: u64,
    /// Slow-tail faults observed on this backend.
    pub faults_slow: u64,
    /// Times this backend's breaker tripped open.
    pub breaker_trips: u64,
    /// Latency distribution of the requests this backend executed (and won):
    /// lifetime count/total/max plus exact window p50/p95/p99.
    pub latency: zeroed_obs::HistogramSnapshot,
}

impl BackendStats {
    /// Useful tokens this backend served.
    pub fn tokens(&self) -> u64 {
        self.input_tokens + self.output_tokens
    }
}

/// Snapshot of router activity.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RouterStats {
    /// Requests routed (each executes exactly one backend call).
    pub requests: u64,
    /// Candidates skipped during failover because of injected error/timeout
    /// faults.
    pub failovers: u64,
    /// Hedged requests fired.
    pub hedges_fired: u64,
    /// Hedged races won by the hedge (rather than the slow primary).
    pub hedges_won_by_hedge: u64,
    /// Requests executed fail-open on a faulted backend because every
    /// candidate was scheduled to fail. The request still completes.
    pub forced_executions: u64,
    /// Breaker trips across all backends.
    pub breaker_trips: u64,
    /// Tokens charged to cancelled hedge losers across all backends.
    pub hedge_waste_tokens: u64,
    /// Per-backend breakdown.
    pub backends: Vec<BackendStats>,
}

impl RouterStats {
    /// Useful tokens served across all backends (excludes hedge waste).
    pub fn tokens(&self) -> u64 {
        self.backends.iter().map(BackendStats::tokens).sum()
    }

    /// Total spend including cancelled hedges: useful + waste.
    pub fn total_spend_tokens(&self) -> u64 {
        self.tokens() + self.hedge_waste_tokens
    }
}

/// How a breaker admits (or refuses) a backend at selection time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Admission {
    /// Breaker closed: freely admissible.
    Closed,
    /// Breaker open but the cooldown has elapsed: admissible as a half-open
    /// probe whose outcome decides whether it closes or re-trips.
    Probe,
    /// Breaker open and not yet due: not admissible.
    Refused,
}

/// Circuit-breaker state, clocked in routed requests.
enum BreakerState {
    Closed,
    /// Tripped open until the router's request counter reaches `until`, at
    /// which point the next selection may probe it (half-open).
    Open {
        until: u64,
    },
}

struct Breaker {
    consecutive: u32,
    state: BreakerState,
}

#[derive(Default)]
struct BackendCounters {
    requests: AtomicU64,
    input_tokens: AtomicU64,
    output_tokens: AtomicU64,
    hedges_fired: AtomicU64,
    hedges_won: AtomicU64,
    hedge_waste_tokens: AtomicU64,
    faults_error: AtomicU64,
    faults_timeout: AtomicU64,
    faults_slow: AtomicU64,
    breaker_trips: AtomicU64,
}

struct Backend<'a> {
    client: &'a dyn LlmClient,
    config: BackendConfig,
    budget: Budget,
    breaker: Mutex<Breaker>,
    counters: BackendCounters,
    /// Caller-observed latency of requests this backend executed (and won),
    /// surfaced as [`BackendStats::latency`].
    latency: zeroed_obs::Histogram,
}

impl Backend<'_> {
    /// The fault `request` is scheduled to meet on this backend.
    fn fault(&self, request: &Request<'_>) -> Option<FaultKind> {
        self.client
            .injected_fault(self.client.request_salt(request))
    }
}

#[derive(Default)]
struct RouterCounters {
    requests: AtomicU64,
    failovers: AtomicU64,
    hedges_fired: AtomicU64,
    hedges_won_by_hedge: AtomicU64,
    forced: AtomicU64,
}

/// Latency-sample retention cap. Recent-window quantiles are what both the
/// hedge deadline and the benchmark report want, and the bound keeps a
/// long-running router's memory and per-hedge sort cost constant. This is
/// the [`zeroed_obs::Histogram`] default window, restated here so the router
/// docs and tests name the number they rely on.
const LATENCY_WINDOW: usize = zeroed_obs::Histogram::DEFAULT_WINDOW;

/// Memoised hedge deadline: recomputing the latency percentile means cloning
/// and sorting the whole sample window, so it is refreshed at most once per
/// [`DEADLINE_REFRESH`] routed samples instead of on every hedge.
#[derive(Default)]
struct DeadlineCache {
    at_total: u64,
    value: Duration,
}

/// How many new samples may accumulate before the hedge deadline is
/// recomputed from the latency window.
const DEADLINE_REFRESH: u64 = 32;

/// The multi-backend routing [`LlmClient`] (see module docs).
pub struct RouterLlm<'a> {
    name: String,
    backends: Vec<Backend<'a>>,
    hedge: HedgePolicy,
    breaker_policy: BreakerPolicy,
    timeout_penalty: Duration,
    latency_scale: f64,
    /// Aggregate of executed (winning) calls, charged with the exact same
    /// token arithmetic the backends use — so
    /// `router.ledger() == Σ backend ledgers` when backends start fresh.
    ledger: TokenLedger,
    counters: RouterCounters,
    /// Per-request wall latency (the caller-observed duration of each routed
    /// request, including failover timeouts and hedge deadlines). Quantiles
    /// are computed over the most recent [`LATENCY_WINDOW`] requests.
    samples: zeroed_obs::Histogram,
    /// Memoised hedge deadline (see [`DeadlineCache`]).
    deadline: Mutex<DeadlineCache>,
    /// Flight recorder installed for the duration of a traced run
    /// ([`RouterLlm::install_recorder`]); routing decisions journal into it
    /// under whatever [`zeroed_obs::TraceId`] the caller's trace scope holds.
    recorder: Mutex<Option<Arc<TraceRecorder>>>,
}

impl std::fmt::Debug for RouterLlm<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RouterLlm")
            .field("name", &self.name)
            .field("backends", &self.backends.len())
            .field("hedge", &self.hedge)
            .field("stats", &self.stats())
            .finish()
    }
}

impl<'a> RouterLlm<'a> {
    /// Builds a router over `clients`, zipping them positionally with
    /// `config.backends` (missing entries get numbered defaults).
    ///
    /// Routing is response-transparent **iff** the registered backends are
    /// response-equivalent: any two must answer every request identically
    /// (replicas of one deterministic model — same profile, seed and oracle;
    /// latency profiles and fault schedules may differ freely). That is the
    /// contract the conformance suite enforces; the router does not (cannot)
    /// verify it per request.
    pub fn new(clients: Vec<&'a dyn LlmClient>, config: &RouterConfig) -> Self {
        assert!(!clients.is_empty(), "RouterLlm needs at least one backend");
        let name = format!(
            "router[{}]",
            clients
                .iter()
                .map(|c| c.name())
                .collect::<Vec<_>>()
                .join("+")
        );
        let backends = clients
            .into_iter()
            .enumerate()
            .map(|(i, client)| {
                let cfg = config
                    .backends
                    .get(i)
                    .cloned()
                    .unwrap_or_else(|| BackendConfig::numbered(i));
                Backend {
                    client,
                    budget: Budget::new(cfg.budget),
                    breaker: Mutex::new(Breaker {
                        consecutive: 0,
                        state: BreakerState::Closed,
                    }),
                    counters: BackendCounters::default(),
                    latency: zeroed_obs::Histogram::new(),
                    config: cfg,
                }
            })
            .collect();
        Self {
            name,
            backends,
            hedge: config.hedge,
            breaker_policy: config.breaker,
            timeout_penalty: Duration::from_nanos((config.timeout_ms.max(0.0) * 1e6) as u64),
            latency_scale: config.latency_scale.max(0.0),
            ledger: TokenLedger::new(),
            counters: RouterCounters::default(),
            samples: zeroed_obs::Histogram::with_window(LATENCY_WINDOW),
            deadline: Mutex::new(DeadlineCache::default()),
            recorder: Mutex::new(None),
        }
    }

    /// Installs a flight recorder: every subsequent routed request journals
    /// its decisions (primary pick, failovers, injected faults, breaker
    /// trips/probes, hedging, completion) as [`zeroed_obs::TraceEvent`]s,
    /// stamped with the caller's current trace scope id. Interior-mutable so
    /// a traced run can attach to a router it only holds by `&`.
    pub fn install_recorder(&self, recorder: Arc<TraceRecorder>) {
        *self.recorder.lock().unwrap_or_else(|e| e.into_inner()) = Some(recorder);
    }

    /// Detaches the recorder installed by [`RouterLlm::install_recorder`].
    pub fn clear_recorder(&self) {
        *self.recorder.lock().unwrap_or_else(|e| e.into_inner()) = None;
    }

    /// Snapshot of routing activity over the router's lifetime. The counters
    /// never reset, so to count one run build a fresh router for it (or take
    /// your own deltas).
    pub fn stats(&self) -> RouterStats {
        let backends: Vec<BackendStats> = self
            .backends
            .iter()
            .map(|b| BackendStats {
                name: b.config.name.clone(),
                requests: b.counters.requests.load(Ordering::Relaxed),
                input_tokens: b.counters.input_tokens.load(Ordering::Relaxed),
                output_tokens: b.counters.output_tokens.load(Ordering::Relaxed),
                hedges_fired: b.counters.hedges_fired.load(Ordering::Relaxed),
                hedges_won: b.counters.hedges_won.load(Ordering::Relaxed),
                hedge_waste_tokens: b.counters.hedge_waste_tokens.load(Ordering::Relaxed),
                faults_error: b.counters.faults_error.load(Ordering::Relaxed),
                faults_timeout: b.counters.faults_timeout.load(Ordering::Relaxed),
                faults_slow: b.counters.faults_slow.load(Ordering::Relaxed),
                breaker_trips: b.counters.breaker_trips.load(Ordering::Relaxed),
                latency: b.latency.snapshot(),
            })
            .collect();
        RouterStats {
            requests: self.counters.requests.load(Ordering::Relaxed),
            failovers: self.counters.failovers.load(Ordering::Relaxed),
            hedges_fired: self.counters.hedges_fired.load(Ordering::Relaxed),
            hedges_won_by_hedge: self.counters.hedges_won_by_hedge.load(Ordering::Relaxed),
            forced_executions: self.counters.forced.load(Ordering::Relaxed),
            breaker_trips: backends.iter().map(|b| b.breaker_trips).sum(),
            hedge_waste_tokens: backends.iter().map(|b| b.hedge_waste_tokens).sum(),
            backends,
        }
    }

    /// The `q`-quantile (`0.0..=1.0`) of observed request latencies
    /// (`Duration::ZERO` before any request). Exact nearest-rank over the
    /// sample window.
    pub fn latency_quantile(&self, q: f64) -> Duration {
        self.samples.quantile(q.clamp(0.0, 1.0))
    }

    /// The current hedge deadline: the policy percentile of observed request
    /// latencies, floored by `min_deadline_ms` (used cold-start too). The
    /// percentile is memoised and refreshed at most every
    /// [`DEADLINE_REFRESH`] samples — each refresh clones and sorts the
    /// window, which is too expensive to repeat on every hedge.
    fn hedge_deadline(&self) -> Duration {
        let floor = Duration::from_nanos((self.hedge.min_deadline_ms.max(0.0) * 1e6) as u64);
        // Lifetime sample count doubles as the staleness clock (the window
        // only ever shrinks it to the most recent LATENCY_WINDOW samples).
        let total = self.samples.count();
        if total < 20 {
            return floor;
        }
        {
            let cached = self.deadline.lock().unwrap_or_else(|e| e.into_inner());
            if cached.at_total > 0 && total.saturating_sub(cached.at_total) < DEADLINE_REFRESH {
                return cached.value.max(floor);
            }
        }
        let value = self.samples.quantile(self.hedge.percentile).max(floor);
        *self.deadline.lock().unwrap_or_else(|e| e.into_inner()) = DeadlineCache {
            at_total: total,
            value,
        };
        value
    }

    /// How backend `b`'s breaker admits it at request-clock `now`.
    fn breaker_admission(&self, b: usize, now: u64) -> Admission {
        let breaker = self.backends[b]
            .breaker
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        match breaker.state {
            BreakerState::Closed => Admission::Closed,
            // Due-for-probe acts as half-open: admissible again, and the
            // outcome of the probe decides whether it closes or re-trips.
            BreakerState::Open { until } if now >= until => Admission::Probe,
            BreakerState::Open { .. } => Admission::Refused,
        }
    }

    /// Charges one fault against backend `b`'s breaker. Returns `true` when
    /// this failure tripped the breaker open (so the caller can journal it).
    fn record_failure(&self, b: usize, now: u64) -> bool {
        let backend = &self.backends[b];
        let mut breaker = backend.breaker.lock().unwrap_or_else(|e| e.into_inner());
        breaker.consecutive += 1;
        let trip = match breaker.state {
            // A failed half-open probe re-trips immediately.
            BreakerState::Open { until } => now >= until,
            BreakerState::Closed => breaker.consecutive >= self.breaker_policy.failure_threshold,
        };
        if trip {
            breaker.state = BreakerState::Open {
                until: now + self.breaker_policy.cooldown_requests.max(1),
            };
            backend
                .counters
                .breaker_trips
                .fetch_add(1, Ordering::Relaxed);
        }
        trip
    }

    fn record_success(&self, b: usize) {
        let mut breaker = self.backends[b]
            .breaker
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        breaker.consecutive = 0;
        breaker.state = BreakerState::Closed;
    }

    /// Routes one request (see module docs for the discipline). Exactly one
    /// backend client executes; the returned value is its response.
    fn route(&self, request: &Request<'_>) -> Response {
        let prompt = request.prompt();
        let now = self.counters.requests.fetch_add(1, Ordering::Relaxed);
        let t_start = Instant::now();

        // Flight recording: the routed request journals under whatever trace
        // scope the caller (usually `CachedLlm::resolve`) installed on this
        // thread; without a scope the events carry `TraceId::NONE` but still
        // reconcile count-for-count against `RouterStats`.
        let rec = self
            .recorder
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .clone();
        let trace = current_id();
        let journal = |kind: EventKind, arg: u64| {
            if let Some(r) = &rec {
                r.emit(trace, kind, arg);
            }
        };

        // Request fingerprint: kind + prompt + hidden-state salt, hashed with
        // the RequestKey scheme. Response-equivalent backends share salts, so
        // backend 0's stands for the request.
        let fp = {
            let mut b = RequestKey::builder(request.kind(), &self.name);
            b.text(&prompt)
                .word(self.backends[0].client.request_salt(request));
            b.finish().to_u128() as u64
        };

        // Admissible backends in registration order; if every breaker is open
        // and not yet due, fail open over all of them.
        let mut candidates: Vec<usize> = (0..self.backends.len())
            .filter(|&i| match self.breaker_admission(i, now) {
                Admission::Closed => true,
                Admission::Probe => {
                    journal(EventKind::BreakerProbe, i as u64);
                    true
                }
                Admission::Refused => false,
            })
            .collect();
        if candidates.is_empty() {
            candidates = (0..self.backends.len()).collect();
        }
        let start = (fp % candidates.len() as u64) as usize;
        journal(EventKind::RouterPrimary, candidates[start] as u64);

        // Deterministic failover walk: skip candidates scheduled to error or
        // time out, charging their breakers (and paying timeout deadlines).
        let mut chosen: Option<(usize, bool)> = None;
        let mut extra_wait = Duration::ZERO;
        for k in 0..candidates.len() {
            let b = candidates[(start + k) % candidates.len()];
            let backend = &self.backends[b];
            match backend.fault(request) {
                Some(FaultKind::Error) => {
                    backend
                        .counters
                        .faults_error
                        .fetch_add(1, Ordering::Relaxed);
                    self.counters.failovers.fetch_add(1, Ordering::Relaxed);
                    journal(EventKind::FaultInjected, b as u64);
                    journal(EventKind::RouterFailover, b as u64);
                    if self.record_failure(b, now) {
                        journal(EventKind::BreakerTrip, b as u64);
                    }
                }
                Some(FaultKind::Timeout) => {
                    backend
                        .counters
                        .faults_timeout
                        .fetch_add(1, Ordering::Relaxed);
                    self.counters.failovers.fetch_add(1, Ordering::Relaxed);
                    extra_wait += self.timeout_penalty;
                    journal(EventKind::FaultInjected, b as u64);
                    journal(EventKind::RouterFailover, b as u64);
                    if self.record_failure(b, now) {
                        journal(EventKind::BreakerTrip, b as u64);
                    }
                }
                Some(FaultKind::SlowTail) => {
                    backend.counters.faults_slow.fetch_add(1, Ordering::Relaxed);
                    journal(EventKind::FaultInjected, b as u64);
                    chosen = Some((b, true));
                    break;
                }
                None => {
                    chosen = Some((b, false));
                    break;
                }
            }
        }
        let (mut winner, winner_slow, forced) = match chosen {
            Some((b, slow)) => (b, slow, false),
            None => {
                // Every candidate is scheduled to fail: execute the rotation's
                // primary anyway. The request is answered, never dropped.
                self.counters.forced.fetch_add(1, Ordering::Relaxed);
                (candidates[start], false, true)
            }
        };

        // Hedge: a slow-tail winner races the next viable backend. The loser
        // is cancelled — its client never executes — and the request cost is
        // charged to its hedge-waste line below.
        let mut loser: Option<usize> = None;
        if self.hedge.enabled && winner_slow && !forced && self.backends.len() > 1 {
            let winner_pos = candidates.iter().position(|&b| b == winner).unwrap_or(0);
            let mut hedge: Option<(usize, bool)> = None;
            for k in 1..candidates.len() {
                let b = candidates[(winner_pos + k) % candidates.len()];
                let backend = &self.backends[b];
                match backend.fault(request) {
                    Some(FaultKind::Error) | Some(FaultKind::Timeout) => continue,
                    Some(FaultKind::SlowTail) => {
                        backend.counters.faults_slow.fetch_add(1, Ordering::Relaxed);
                        journal(EventKind::FaultInjected, b as u64);
                        hedge = Some((b, true));
                        break;
                    }
                    None => {
                        hedge = Some((b, false));
                        break;
                    }
                }
            }
            if let Some((h, hedge_slow)) = hedge {
                self.counters.hedges_fired.fetch_add(1, Ordering::Relaxed);
                self.backends[h]
                    .counters
                    .hedges_fired
                    .fetch_add(1, Ordering::Relaxed);
                journal(EventKind::HedgeFired, h as u64);
                if hedge_slow {
                    // The hedge landed in its own slow-tail: the primary
                    // finishes first and the hedge is cancelled.
                    loser = Some(h);
                    journal(EventKind::HedgeCancelled, h as u64);
                } else {
                    // The hedge wins; the slow primary is cancelled. The
                    // caller paid the deadline before the hedge fired.
                    loser = Some(winner);
                    winner = h;
                    extra_wait += self.hedge_deadline();
                    self.counters
                        .hedges_won_by_hedge
                        .fetch_add(1, Ordering::Relaxed);
                    self.backends[h]
                        .counters
                        .hedges_won
                        .fetch_add(1, Ordering::Relaxed);
                    journal(EventKind::HedgeWon, h as u64);
                }
            }
        }

        // Execute exactly one backend under its concurrency budget; the
        // permit releases on drop even if the call unwinds.
        let backend = &self.backends[winner];
        let value = {
            let _permit = backend.budget.acquire();
            backend.client.complete(request)
        };
        // A forced winner's fault was already charged during the failover
        // walk — charging again here would halve the effective breaker
        // threshold. Only genuine (unforced) executions reset the breaker.
        if !forced {
            self.record_success(winner);
        }

        // Simulated waiting the caller observed beyond the winning call:
        // timeout deadlines paid during failover and the hedge-fire delay.
        if self.latency_scale > 0.0 && extra_wait > Duration::ZERO {
            std::thread::sleep(extra_wait.mul_f64(self.latency_scale));
        }

        // Exact accounting with the same arithmetic the backends charge:
        // winner tokens to the useful ledgers, the same cost to the loser's
        // hedge-waste line (the cancelled call had consumed equivalent work).
        let input = count_tokens(&prompt) as u64;
        let output = count_tokens(&request.render(&value)) as u64;
        self.ledger.record_counts(input as usize, output as usize);
        backend.counters.requests.fetch_add(1, Ordering::Relaxed);
        backend
            .counters
            .input_tokens
            .fetch_add(input, Ordering::Relaxed);
        backend
            .counters
            .output_tokens
            .fetch_add(output, Ordering::Relaxed);
        if let Some(l) = loser {
            self.backends[l]
                .counters
                .hedge_waste_tokens
                .fetch_add(input + output, Ordering::Relaxed);
        }

        // Caller-observed wall latency: once router-wide (feeds the hedge
        // deadline and `latency_quantile`) and once against the winning
        // backend's own distribution.
        let observed = t_start.elapsed();
        self.samples.record(observed);
        backend.latency.record(observed);
        journal(EventKind::RouterDone, winner as u64);
        value
    }
}

impl LlmClient for RouterLlm<'_> {
    fn name(&self) -> &str {
        &self.name
    }

    fn ledger(&self) -> &TokenLedger {
        &self.ledger
    }

    fn complete(&self, request: &Request<'_>) -> Response {
        self.route(request)
    }

    fn request_salt(&self, request: &Request<'_>) -> u64 {
        // Response-equivalent backends share hidden state; backend 0's salt
        // stands for the ensemble (used by CachedLlm stacking on top).
        self.backends[0].client.request_salt(request)
    }

    fn note_reask(&self, salt: u64, attempt: u32) {
        // A re-asked request may be routed (or hedged) to *any* backend, so
        // the attempt mark must be visible on all of them — response
        // equivalence requires every backend to redraw the same corruption.
        for backend in &self.backends {
            backend.client.note_reask(salt, attempt);
        }
    }

    fn max_in_flight(&self) -> Option<usize> {
        // Each backend serves at most its own capacity, further capped by
        // its router budget; one backend of unknown capacity leaves the sum
        // unknown.
        self.backends
            .iter()
            .map(|b| match (b.client.max_in_flight(), b.budget.capacity()) {
                (Some(serves), Some(budget)) => Some(serves.min(budget)),
                (serves, budget) => serves.or(budget),
            })
            .sum()
    }

    fn cache_identity(&self) -> &str {
        // The router's *responses* are its backends' responses (the
        // response-equivalence contract), so cache keys — and persisted store
        // entries — carry the backend identity, not the `router[...]` display
        // name. A routed warm start can then replay entries a single-backend
        // run persisted, and vice versa.
        self.backends[0].client.cache_identity()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use zeroed_llm::{AttributeContext, FaultSchedule, SimLlm};
    use zeroed_table::Table;

    fn fixture() -> Table {
        let rows: Vec<Vec<String>> = (0..60)
            .map(|i| {
                vec![
                    ["Boston", "Denver", "Phoenix"][i % 3].to_string(),
                    ["MA", "CO", "AZ"][i % 3].to_string(),
                ]
            })
            .collect();
        Table::new("cities", vec!["city".into(), "state".into()], rows).unwrap()
    }

    fn replicas(n: usize, schedules: &[FaultSchedule]) -> Vec<SimLlm> {
        (0..n)
            .map(|i| {
                let sim = SimLlm::default_model(3);
                match schedules.get(i) {
                    Some(&s) => sim.with_faults(s),
                    None => sim,
                }
            })
            .collect()
    }

    fn label_sweep(llm: &dyn LlmClient, table: &Table, n: usize) -> Vec<Vec<bool>> {
        let corr = vec![0usize];
        (0..n)
            .map(|i| {
                let rows = [i % table.n_rows(), (i * 7 + 1) % table.n_rows()];
                let ctx = AttributeContext {
                    table,
                    column: 1,
                    correlated: &corr,
                    sample_rows: &rows,
                };
                llm.label_batch(&ctx, None, &rows)
            })
            .collect()
    }

    #[test]
    fn healthy_router_is_response_transparent_and_spreads_load() {
        let table = fixture();
        let reference = SimLlm::default_model(3);
        let expected = label_sweep(&reference, &table, 40);

        let sims = replicas(3, &[]);
        let clients: Vec<&dyn LlmClient> = sims.iter().map(|s| s as &dyn LlmClient).collect();
        let router = RouterLlm::new(clients, &RouterConfig::for_backends(3));
        let got = label_sweep(&router, &table, 40);
        assert_eq!(expected, got, "routing must not change responses");

        let stats = router.stats();
        assert_eq!(stats.requests, 40);
        assert_eq!(stats.failovers, 0);
        assert_eq!(stats.hedges_fired, 0);
        // Every request executed exactly once, spread over the backends.
        assert_eq!(stats.backends.iter().map(|b| b.requests).sum::<u64>(), 40);
        assert!(
            stats.backends.iter().filter(|b| b.requests > 0).count() >= 2,
            "fingerprint spreading should reach several backends: {stats:?}"
        );
        // Router ledger equals the sum of backend ledgers.
        let sum: usize = sims.iter().map(|s| s.ledger().usage().total()).sum();
        assert_eq!(router.ledger().usage().total(), sum);
    }

    #[test]
    fn erroring_backend_fails_over_and_trips_its_breaker() {
        let table = fixture();
        let reference = SimLlm::default_model(3);
        let expected = label_sweep(&reference, &table, 60);

        let always_fail = FaultSchedule {
            seed: 1,
            error_rate: 1.0,
            ..FaultSchedule::healthy(1)
        };
        let sims = replicas(2, &[always_fail]);
        let clients: Vec<&dyn LlmClient> = sims.iter().map(|s| s as &dyn LlmClient).collect();
        let router = RouterLlm::new(clients, &RouterConfig::for_backends(2));
        let got = label_sweep(&router, &table, 60);
        assert_eq!(expected, got);

        let stats = router.stats();
        // Backend 0 never executes a request; backend 1 serves everything.
        assert_eq!(stats.backends[0].requests, 0);
        assert_eq!(stats.backends[1].requests, 60);
        assert!(stats.failovers > 0);
        assert!(
            stats.breaker_trips >= 1,
            "persistent errors must trip the breaker: {stats:?}"
        );
        // While the breaker is open, backend 0 is not even probed; failovers
        // are therefore fewer than total requests.
        assert!(
            stats.failovers < 60,
            "breaker must suppress probing: {stats:?}"
        );
        assert_eq!(stats.forced_executions, 0);
        assert_eq!(sims[0].ledger().usage().requests, 0);
        assert_eq!(sims[1].ledger().usage().requests, 60);
    }

    #[test]
    fn hedging_cancels_the_slow_loser_and_charges_waste() {
        let table = fixture();
        let reference = SimLlm::default_model(3);
        let expected = label_sweep(&reference, &table, 80);

        let slow = FaultSchedule::slow_tail(9, 0.5, 40.0);
        let sims = replicas(2, &[slow]);
        let clients: Vec<&dyn LlmClient> = sims.iter().map(|s| s as &dyn LlmClient).collect();
        let router = RouterLlm::new(clients, &RouterConfig::for_backends(2));
        let got = label_sweep(&router, &table, 80);
        assert_eq!(expected, got);

        let stats = router.stats();
        assert!(
            stats.hedges_fired > 0,
            "slow tail must fire hedges: {stats:?}"
        );
        assert_eq!(stats.hedges_won_by_hedge, stats.backends[1].hedges_won);
        assert!(stats.hedge_waste_tokens > 0);
        // Cancelled losers never execute: every request cost exactly one
        // backend call, and the ledgers reconcile.
        let executed: usize = sims.iter().map(|s| s.ledger().usage().requests).sum();
        assert_eq!(executed, 80);
        let useful: usize = sims.iter().map(|s| s.ledger().usage().total()).sum();
        assert_eq!(stats.tokens() as usize, useful);
        // Each cancelled loser is charged its request's cost, never more:
        // waste is bounded by one duplicate per hedged request.
        assert!(
            stats.hedge_waste_tokens <= stats.hedges_fired * (useful as u64),
            "waste exceeds any possible per-hedge cost: {stats:?}"
        );
    }

    #[test]
    fn hedge_waste_equals_the_cancelled_calls_exact_cost() {
        // Both backends slow on every request: every routed request fires a
        // hedge, the hedge is slow too, so the primary wins and the hedge is
        // cancelled. Each request therefore wastes exactly one duplicate of
        // itself — total waste must equal total useful cost, measured
        // independently through the backends' own ledgers.
        let table = fixture();
        let slow0 = FaultSchedule::slow_tail(1, 1.0, 1.0);
        let slow1 = FaultSchedule::slow_tail(2, 1.0, 1.0);
        let sims = replicas(2, &[slow0, slow1]);
        let clients: Vec<&dyn LlmClient> = sims.iter().map(|s| s as &dyn LlmClient).collect();
        let router = RouterLlm::new(clients, &RouterConfig::for_backends(2));
        let _ = label_sweep(&router, &table, 50);
        let stats = router.stats();
        assert_eq!(stats.hedges_fired, 50, "every request must hedge");
        assert_eq!(stats.hedges_won_by_hedge, 0, "a slow hedge never wins");
        let useful: u64 = sims.iter().map(|s| s.ledger().usage().total() as u64).sum();
        assert_eq!(
            stats.hedge_waste_tokens, useful,
            "waste must equal the executed calls' exact cost"
        );
        assert_eq!(stats.total_spend_tokens(), 2 * useful);
    }

    #[test]
    fn fail_open_when_every_backend_faults() {
        let table = fixture();
        let reference = SimLlm::default_model(3);
        let expected = label_sweep(&reference, &table, 30);

        let fail0 = FaultSchedule {
            seed: 1,
            error_rate: 1.0,
            ..FaultSchedule::healthy(1)
        };
        let fail1 = FaultSchedule {
            seed: 2,
            timeout_rate: 1.0,
            ..FaultSchedule::healthy(2)
        };
        let sims = replicas(2, &[fail0, fail1]);
        let clients: Vec<&dyn LlmClient> = sims.iter().map(|s| s as &dyn LlmClient).collect();
        let router = RouterLlm::new(clients, &RouterConfig::for_backends(2));
        let got = label_sweep(&router, &table, 30);
        assert_eq!(expected, got, "fail-open must still answer every request");

        let stats = router.stats();
        assert_eq!(stats.forced_executions, 30);
        assert_eq!(stats.backends.iter().map(|b| b.requests).sum::<u64>(), 30);
    }

    #[test]
    fn breaker_reprobes_after_cooldown() {
        let table = fixture();
        let always_fail = FaultSchedule {
            seed: 5,
            error_rate: 1.0,
            ..FaultSchedule::healthy(5)
        };
        let sims = replicas(2, &[always_fail]);
        let clients: Vec<&dyn LlmClient> = sims.iter().map(|s| s as &dyn LlmClient).collect();
        let mut config = RouterConfig::for_backends(2);
        config.breaker = BreakerPolicy {
            failure_threshold: 2,
            cooldown_requests: 8,
        };
        let router = RouterLlm::new(clients, &config);
        let _ = label_sweep(&router, &table, 120);
        let stats = router.stats();
        // Enough requests passed for several probe → re-trip cycles.
        assert!(
            stats.breaker_trips >= 2,
            "cooldown probes must re-trip a still-broken backend: {stats:?}"
        );
        assert_eq!(stats.backends[0].requests, 0);
    }

    #[test]
    fn capacity_sums_backends_capped_by_their_budgets() {
        let sims = replicas(2, &[]);
        let clients: Vec<&dyn LlmClient> = sims.iter().map(|s| s as &dyn LlmClient).collect();
        let mut config = RouterConfig::for_backends(2);
        config.backends[1].budget = 3;
        let router = RouterLlm::new(clients, &config);
        assert_eq!(router.max_in_flight(), Some(SimLlm::SERVING_CAPACITY + 3));
    }

    #[test]
    fn latency_quantile_orders_samples() {
        let sims = replicas(1, &[]);
        let clients: Vec<&dyn LlmClient> = sims.iter().map(|s| s as &dyn LlmClient).collect();
        let router = RouterLlm::new(clients, &RouterConfig::for_backends(1));
        assert_eq!(router.latency_quantile(0.99), Duration::ZERO);
        for ms in 1..=100 {
            router.samples.record(Duration::from_millis(ms));
        }
        assert_eq!(router.latency_quantile(0.5), Duration::from_millis(50));
        assert_eq!(router.latency_quantile(0.99), Duration::from_millis(99));
        assert_eq!(router.latency_quantile(1.0), Duration::from_millis(100));
    }

    #[test]
    fn latency_window_is_bounded_and_keeps_recent_samples() {
        let sims = replicas(1, &[]);
        let clients: Vec<&dyn LlmClient> = sims.iter().map(|s| s as &dyn LlmClient).collect();
        let router = RouterLlm::new(clients, &RouterConfig::for_backends(1));
        for i in 0..(LATENCY_WINDOW + 500) {
            router.samples.record(Duration::from_micros(i as u64));
        }
        let window = router.samples.samples();
        assert_eq!(window.len(), LATENCY_WINDOW, "retention must be bounded");
        // The overwritten slots hold the newest samples; lifetime counting
        // still sees everything.
        assert!(window
            .iter()
            .any(|d| *d == Duration::from_micros((LATENCY_WINDOW + 499) as u64)));
        assert!(window.iter().all(|d| *d >= Duration::from_micros(500)));
        assert_eq!(router.samples.count() as usize, LATENCY_WINDOW + 500);
    }
}
