//! Exhaustive interleaving tests of the engine's settle protocol.
//!
//! A scenario is a few actors: callers, a scorer incarnation, the
//! supervisor, a reload caller and `join_worker`. Each actor runs the
//! engine's own steps: the queue decisions taken under its lock
//! ([`QueueState::admit`], [`QueueState::pop`],
//! [`QueueState::batch_ready`], [`drain_queue_on_shutdown`]),
//! [`process_batch`], and [`Slot::settle`] / [`Slot::take`], composed the
//! way the threaded code composes them. The explorer runs the steps on one
//! thread and enumerates every order of them by depth-first search,
//! replaying each prefix from a fresh engine state. A step that would block
//! (a caller waiting on a pending slot, a scorer on an empty queue) is not
//! enabled, so a schedule ends when no actor can move.
//!
//! After each schedule the explorer checks that every admitted request was
//! settled exactly once and its caller took that outcome, that each counter
//! equals the winning settles of its kind, that no caller is left blocked,
//! and that no job is left queued once shutdown is raised.

use std::cell::RefCell;
use std::collections::BTreeSet;

use ist_data::{IntentWorld, WorldConfig};

use super::*;

/// Virtual time advances one tick per executed step, so a deadline passes
/// partway through some schedules and a batch window closes one step after
/// it opens.
const TICK: Duration = Duration::from_millis(1);

/// The model and dataset every schedule of a scenario shares.
struct Env {
    ds: SequentialDataset,
    model: Isrec,
    catalog: PackedRhs,
    /// Shared across schedules: cache hits only spare forward passes, they
    /// never change what a request settles with.
    cache: RefCell<ReprCache>,
}

impl Env {
    fn new() -> Env {
        let ds = IntentWorld::new(WorldConfig::beauty_like().scaled(0.1)).generate(5);
        let config = IsrecConfig {
            d: 16,
            d_prime: 4,
            lambda: 4,
            max_len: 8,
            layers: 1,
            heads: 2,
            gcn_layers: 1,
            ..Default::default()
        };
        let model = Isrec::new(&ds, config, 7);
        let catalog = model.output_item_panels();
        Env {
            ds,
            model,
            catalog,
            cache: RefCell::new(ReprCache::new(16)),
        }
    }
}

#[derive(Clone, Copy, Debug)]
enum Actor {
    /// Submits request `r`; if it has a deadline, its wait times out and it
    /// settles `DeadlineExceeded` unless answered first; then it takes its
    /// outcome.
    Caller(usize),
    /// Submits a reload once every caller has submitted, then takes its
    /// answer.
    Reloader,
    /// A scorer incarnation running `next_work`'s loop. With `panics`, its
    /// first batch panics and the incarnation exits.
    Scorer { panics: bool },
    /// Once the scorer has exited on a panic: drains the queue if shutdown
    /// is raised, else runs a respawned scorer's loop or, with `degraded`
    /// (respawn budget spent), the degraded loop's fallback answers.
    Supervisor { degraded: bool },
    /// `join_worker`: raises the shutdown flag.
    Joiner,
}

struct Scenario {
    /// Each request's deadline, in ticks from the start (`None`: its caller
    /// waits until answered).
    deadlines: Vec<Option<u32>>,
    /// Admission-queue bound (0: unbounded).
    cap: usize,
    max_batch: usize,
    actors: Vec<Actor>,
}

/// A slot's state as the observer last saw it.
#[derive(Clone, Debug, PartialEq)]
enum Seen {
    Pending,
    Settled(Outcome<ServeResponse>),
    Taken,
}

fn peek(slot: &Slot<ServeResponse>) -> Seen {
    match &*slot.lock() {
        State::Pending => Seen::Pending,
        State::Settled(out) => Seen::Settled(out.clone()),
        State::Taken => Seen::Taken,
    }
}

struct Req {
    slot: Option<Arc<Slot<ServeResponse>>>,
    seen: Seen,
    /// Writes into the slot the observer saw, one per step that changed it.
    settles: usize,
    /// The first outcome written: the winner's.
    first: Option<Outcome<ServeResponse>>,
    took: Option<Outcome<ServeResponse>>,
}

/// A scorer incarnation's `next_work` state plus the batch it runs.
#[derive(Default)]
struct Loop {
    batch: Vec<QueuedScore>,
    window: Option<Instant>,
    /// `batch_ready` said yes: the next step runs the batch.
    ready: bool,
    panics: bool,
    /// Answers from the fallback ranker, one request per batch, like
    /// `degraded_loop`.
    fallback: bool,
    /// `Some(panicked)` once the incarnation has returned.
    exited: Option<bool>,
}

struct World<'e> {
    env: &'e Env,
    sc: &'e Scenario,
    shared: Shared,
    t0: Instant,
    steps: u32,
    reqs: Vec<Req>,
    reload: Option<Arc<Slot<Option<u64>>>>,
    reload_took: Option<Outcome<Option<u64>>>,
    /// Per actor: program counter of a caller, reloader, joiner or
    /// supervisor (0 = watching, 1 = recovered, 2 = drained).
    pc: Vec<usize>,
    /// Per actor: the scorer loop of a `Scorer`, or of a `Supervisor` that
    /// respawned one.
    loops: Vec<Loop>,
}

impl<'e> World<'e> {
    fn new(env: &'e Env, sc: &'e Scenario) -> World<'e> {
        let shared = Shared::new(
            env.ds.num_items,
            FallbackRanker::build(&env.ds),
            ServeFaultPlan::default(),
            SloMonitor::new(SloConfig::default()),
        );
        let loops = sc
            .actors
            .iter()
            .map(|actor| Loop {
                panics: matches!(actor, Actor::Scorer { panics: true }),
                fallback: matches!(actor, Actor::Supervisor { degraded: true }),
                ..Loop::default()
            })
            .collect();
        World {
            env,
            sc,
            shared,
            t0: Instant::now(),
            steps: 0,
            reqs: (0..sc.deadlines.len())
                .map(|_| Req {
                    slot: None,
                    seen: Seen::Pending,
                    settles: 0,
                    first: None,
                    took: None,
                })
                .collect(),
            reload: None,
            reload_took: None,
            pc: vec![0; sc.actors.len()],
            loops,
        }
    }

    fn now(&self) -> Instant {
        self.t0 + TICK * self.steps
    }

    fn enabled(&self, a: usize) -> bool {
        let pc = self.pc[a];
        match self.sc.actors[a] {
            Actor::Caller(r) => {
                let expires = self.sc.deadlines[r].is_some();
                match pc {
                    0 => true,
                    1 if expires => true,
                    1 | 2 => self.reqs[r].slot.as_ref().is_some_and(|s| !s.is_pending()),
                    _ => false,
                }
            }
            Actor::Reloader => match pc {
                // The reload queues behind every score job.
                0 => self.reqs.iter().all(|req| req.slot.is_some()),
                1 => self.reload.as_ref().is_some_and(|s| !s.is_pending()),
                _ => false,
            },
            Actor::Joiner => pc == 0,
            Actor::Scorer { .. } => self.loop_enabled(a),
            Actor::Supervisor { .. } => match pc {
                0 => self.loops.iter().any(|lp| lp.exited == Some(true)),
                1 => self.loop_enabled(a),
                _ => false,
            },
        }
    }

    fn loop_enabled(&self, a: usize) -> bool {
        let lp = &self.loops[a];
        let q = self.shared.lock_queue();
        lp.exited.is_none() && (!lp.batch.is_empty() || !q.jobs.is_empty() || q.shutdown)
    }

    fn step(&mut self, a: usize) {
        match self.sc.actors[a] {
            Actor::Caller(r) => self.caller_step(a, r),
            Actor::Reloader => {
                if self.pc[a] == 0 {
                    let slot = Arc::new(Slot::new());
                    let job = Job::Reload {
                        slot: Arc::clone(&slot),
                    };
                    admit(&self.shared, self.sc.cap, job);
                    self.reload = Some(slot);
                } else {
                    let slot = self.reload.as_ref().expect("reload admitted");
                    self.reload_took = slot.take(None);
                }
                self.pc[a] += 1;
            }
            Actor::Joiner => {
                self.shared.lock_queue().shutdown = true;
                self.pc[a] += 1;
            }
            Actor::Scorer { .. } => self.loop_step(a),
            Actor::Supervisor { .. } if self.pc[a] == 0 => {
                if self.shared.lock_queue().shutdown {
                    drain_queue_on_shutdown(&self.shared);
                    self.pc[a] = 2;
                } else {
                    self.pc[a] = 1;
                }
            }
            Actor::Supervisor { .. } => self.loop_step(a),
        }
        self.steps += 1;
        self.observe();
    }

    /// `recommend_inner`: admit, `take(deadline)`; on a timeout settle
    /// `DeadlineExceeded` and take whatever won.
    fn caller_step(&mut self, a: usize, r: usize) {
        let budget = self.sc.deadlines[r].map(|ticks| TICK * ticks);
        match self.pc[a] {
            0 => {
                let seq = &self.env.ds.sequences[r];
                let slot = Arc::new(Slot::new());
                let js = QueuedScore {
                    history: seq[..seq.len().min(4)].to_vec(),
                    k: 5,
                    budget,
                    deadline: budget.map(|b| self.t0 + b),
                    admitted: self.now(),
                    seq: r as u64,
                    slot: Arc::clone(&slot),
                    ctx: None,
                    popped: None,
                };
                admit(&self.shared, self.sc.cap, Job::Score(js));
                self.reqs[r].slot = Some(slot);
                self.pc[a] = 1;
            }
            1 if budget.is_some() => {
                let slot = Arc::clone(self.reqs[r].slot.as_ref().expect("admitted"));
                // The deadline has passed: `t0` is already behind us.
                match slot.take(Some(self.t0)) {
                    Some(out) => {
                        self.reqs[r].took = Some(out);
                        self.pc[a] = 3;
                    }
                    None => {
                        let budget = budget.unwrap_or_default();
                        let err = Err(ServeError::DeadlineExceeded { budget });
                        slot.settle_score(&self.shared.tally, None, err);
                        self.pc[a] = 2;
                    }
                }
            }
            _ => {
                let slot = self.reqs[r].slot.as_ref().expect("admitted");
                self.reqs[r].took = slot.take(None);
                self.pc[a] = 3;
            }
        }
    }

    /// One step of a scorer incarnation: either run the batch
    /// `batch_ready` released, or take one look at the queue the way
    /// `next_work`'s loop does.
    fn loop_step(&mut self, a: usize) {
        let now = self.now();
        let mut lp = std::mem::take(&mut self.loops[a]);
        let (max_batch, timeout) = match lp.fallback {
            true => (1, Duration::ZERO),
            false => (self.sc.max_batch, TICK),
        };
        if lp.ready {
            let batch = std::mem::take(&mut lp.batch);
            (lp.ready, lp.window) = (false, None);
            if lp.panics {
                for js in &batch {
                    let why = ServeError::ScorerPanic("injected".into());
                    js.settle(&self.shared.tally, Err(why));
                }
                lp.exited = Some(true);
            } else if lp.fallback {
                for js in &batch {
                    let answer = self.shared.fallback.rank(&js.history, js.k);
                    let answer = answer.map(|items| ServeResponse {
                        items,
                        degraded: true,
                    });
                    js.settle(&self.shared.tally, answer);
                }
            } else {
                let mut cache = self.env.cache.borrow_mut();
                let (model, catalog) = (&self.env.model, &self.env.catalog);
                process_batch(model, catalog, &mut cache, &self.shared, &batch);
            }
        } else {
            let mut q = self.shared.lock_queue();
            let (expired, reload) = q.pop(now, max_batch, &mut lp.batch);
            for js in expired {
                let budget = js.budget.unwrap_or_default();
                js.settle(
                    &self.shared.tally,
                    Err(ServeError::DeadlineExceeded { budget }),
                );
            }
            if let Some(slot) = reload {
                slot.settle(Ok(None), |_| {});
            } else if lp.batch.is_empty() {
                if q.shutdown {
                    lp.exited = Some(false);
                }
            } else {
                let closes = *lp.window.get_or_insert(now + timeout);
                lp.ready = q.batch_ready(lp.batch.len(), max_batch, now, closes);
            }
        }
        self.loops[a] = lp;
    }

    /// Records every write into a request slot since the last step.
    fn observe(&mut self) {
        for req in &mut self.reqs {
            let Some(slot) = &req.slot else { continue };
            let now = peek(slot);
            if now != req.seen {
                match &now {
                    Seen::Settled(out) => {
                        req.settles += 1;
                        req.first.get_or_insert_with(|| out.clone());
                    }
                    // Settled and taken within one step.
                    Seen::Taken if req.seen == Seen::Pending => req.settles += 1,
                    _ => {}
                }
                req.seen = now;
            }
        }
    }

    fn check(&self, schedule: &str) {
        for (a, actor) in self.sc.actors.iter().enumerate() {
            let finished = match actor {
                Actor::Caller(_) => self.pc[a] == 3,
                Actor::Reloader => self.pc[a] == 2,
                _ => true,
            };
            assert!(finished, "{actor:?} left blocked; schedule {schedule}");
        }
        for (r, req) in self.reqs.iter().enumerate() {
            assert_eq!(req.seen, Seen::Taken, "request {r}; schedule {schedule}");
            assert_eq!(req.settles, 1, "request {r} settles; schedule {schedule}");
            assert_eq!(req.took, req.first, "request {r} took; schedule {schedule}");
        }
        if self.reload.is_some() {
            assert!(self.reload_took.is_some(), "reload; schedule {schedule}");
        }
        let took = || self.reqs.iter().filter_map(|req| req.took.as_ref());
        let count = |kind: fn(&Outcome<ServeResponse>) -> bool| {
            took().filter(|out| kind(out)).count() as u64
        };
        let tally = &self.shared.tally;
        let counters = [
            (&tally.requests, count(|o| o.is_ok()), "requests"),
            (
                &tally.degraded_served,
                count(|o| o.as_ref().is_ok_and(|r| r.degraded)),
                "degraded_served",
            ),
            (&tally.shed, count(|o| o == &Err(ServeError::Shed)), "shed"),
            (
                &tally.timed_out,
                count(|o| matches!(o, Err(ServeError::DeadlineExceeded { .. }))),
                "timed_out",
            ),
        ];
        for (counter, winners, name) in counters {
            let counted = counter.load(Ordering::Relaxed);
            assert_eq!(counted, winners, "{name}; schedule {schedule}");
        }
        let q = self.shared.lock_queue();
        if q.shutdown {
            assert!(q.jobs.is_empty(), "jobs left queued; schedule {schedule}");
        }
    }
}

/// Runs every schedule of `sc`. Returns how many there were and every
/// outcome kind a caller took in any of them.
fn explore(sc: &Scenario) -> (usize, BTreeSet<&'static str>) {
    let env = Env::new();
    let mut schedules = 0;
    let mut kinds = BTreeSet::new();
    let mut stack = vec![Vec::new()];
    while let Some(prefix) = stack.pop() {
        let mut world = World::new(&env, sc);
        for &a in &prefix {
            world.step(a);
        }
        let enabled: Vec<usize> = (0..sc.actors.len()).filter(|&a| world.enabled(a)).collect();
        if enabled.is_empty() {
            let names: Vec<String> = prefix
                .iter()
                .map(|&a| format!("{:?}", sc.actors[a]))
                .collect();
            world.check(&names.join(" → "));
            let took = world.reqs.iter().filter_map(|req| req.took.as_ref());
            kinds.extend(took.map(|out| match out {
                Ok(resp) if resp.degraded => "degraded",
                Ok(_) => "ok",
                Err(e) => e.kind(),
            }));
            schedules += 1;
        }
        for a in enabled.into_iter().rev() {
            let mut next = prefix.clone();
            next.push(a);
            stack.push(next);
        }
    }
    (schedules, kinds)
}

fn kinds(list: &[&'static str]) -> BTreeSet<&'static str> {
    list.iter().copied().collect()
}

#[test]
fn deadline_vs_fill() {
    // Request 1's deadline passes after two ticks, so a late pop expires it.
    let sc = Scenario {
        deadlines: vec![Some(100), Some(2)],
        cap: 0,
        max_batch: 2,
        actors: vec![
            Actor::Caller(0),
            Actor::Caller(1),
            Actor::Scorer { panics: false },
        ],
    };
    assert_eq!(explore(&sc), (1179, kinds(&["deadline", "ok"])));
}

#[test]
fn shed_vs_caller_cancel() {
    // One queue place. Request 0 has the oldest deadline and is the shed
    // victim unless its caller gave up first; request 2's deadline is the
    // soonest, so it sheds itself when it meets a full queue.
    let sc = Scenario {
        deadlines: vec![Some(50), Some(100), Some(20)],
        cap: 1,
        max_batch: 1,
        actors: vec![Actor::Caller(0), Actor::Caller(1), Actor::Caller(2)],
    };
    assert_eq!(explore(&sc), (510, kinds(&["deadline", "shed"])));
}

#[test]
fn panic_fail_vs_caller_deadline() {
    let sc = Scenario {
        deadlines: vec![Some(100), None],
        cap: 0,
        max_batch: 2,
        actors: vec![
            Actor::Caller(0),
            Actor::Caller(1),
            Actor::Scorer { panics: true },
            Actor::Supervisor { degraded: true },
        ],
    };
    assert_eq!(
        explore(&sc),
        (349, kinds(&["deadline", "degraded", "panic"]))
    );
}

#[test]
fn shutdown_drain_vs_an_in_flight_batch() {
    // One request per batch: while one is in flight the other waits in the
    // queue for the drain or the respawned scorer.
    let sc = Scenario {
        deadlines: vec![None, None],
        cap: 0,
        max_batch: 1,
        actors: vec![
            Actor::Caller(0),
            Actor::Caller(1),
            Actor::Scorer { panics: true },
            Actor::Supervisor { degraded: false },
            Actor::Joiner,
        ],
    };
    assert_eq!(explore(&sc), (660, kinds(&["ok", "panic", "shutdown"])));
}

#[test]
fn shutdown_during_respawn_with_a_reload_queued_behind_a_score_job() {
    let sc = Scenario {
        deadlines: vec![None, None],
        cap: 0,
        max_batch: 1,
        actors: vec![
            Actor::Caller(0),
            Actor::Caller(1),
            Actor::Reloader,
            Actor::Scorer { panics: true },
            Actor::Supervisor { degraded: false },
            Actor::Joiner,
        ],
    };
    assert_eq!(explore(&sc), (21086, kinds(&["ok", "panic", "shutdown"])));
}
