//! `serve_steady` and `serve_unique`: `ServingPipeline::serve` under an
//! open-loop Poisson schedule the benchmark generates, after a closed-loop
//! warmup.
//!
//! Latency is timed from each request's due time, so a stall also counts
//! against the requests queued behind it. Capacity is requests per second of
//! the server's busy time (serving plus click ingestion). The rates keep the
//! server about a quarter busy: at half load the tail is set by the few
//! largest bursts of each schedule and does not repeat from run to run.
//! Requests are issued from one thread, and the library's pool runs with one
//! thread (see `main`). The host's speed is sampled in the server's idle
//! gaps, never while a request is due. The reported latencies replay the
//! queue over the normalised service times (see `fifo_latencies`).
//!
//! No journal is attached. `Journal::append` fsyncs, about ten times per
//! request here, and on a shared disk fsync latency had slow phases lasting
//! minutes (p95 30–48 ms instead of 6 ms over six runs in a row), which no
//! CPU reference can normalise.

use std::time::{Duration, Instant};

use basm_data::{Batch, World};
use basm_serving::{Arrival, Exposure, LbsRecall, Request, ServingPipeline};
use basm_tensor::Prng;

use crate::host::HostSpeed;
use crate::layers::{module_breakdown, Layers, STAGES};
use crate::probe::{self, POOL, TOP_K};
use crate::rank::{self, Ranked};
use crate::report::{peak_rss_mb, Report};
use crate::schedule::{poisson_arrivals, repeat_key_share, KeyEvent, Rng, Zipf};
use crate::setup::{self, click_event, seed_histories, RunDir};
use crate::stats::{mean, median, percentile, windowed_rate, Digest};
use crate::trace::Tracer;
use crate::{Args, Run};

pub struct Spec {
    pub name: &'static str,
    /// Open-loop arrivals per second.
    rate: f64,
    /// Zipf(1.1)-popular users; otherwise uniform over all users.
    zipf_users: bool,
    /// Hour sweeps 0→23 across each phase; otherwise every request is at 12.
    sweep_hours: bool,
    /// Click probability per exposure.
    click_p: f64,
}

/// Read-mostly serving: hot users at one hour, so request keys repeat and a
/// reuse cache has something to reuse.
pub const STEADY: Spec = Spec {
    name: "serve_steady",
    rate: 150.0,
    zipf_users: true,
    sweep_hours: false,
    click_p: 0.02,
};

/// Serving with unique keys: uniform users across the day, so reuse is near
/// zero and every request pays recall and feature assembly.
pub const UNIQUE: Spec = Spec {
    name: "serve_unique",
    rate: 100.0,
    zipf_users: false,
    sweep_hours: true,
    click_p: 0.03,
};

const WARMUP_REQUESTS: usize = 500;
/// Every this many requests, the top-k is re-derived through the public
/// stages and must match `serve` bit for bit.
const CHECK_EVERY: usize = 50;
/// Probe spacing in a traced run.
const TRACE_PROBE_EVERY: usize = 10;
/// Requests per capacity window.
const RATE_WINDOW: usize = 100;
const ORDER_P: f64 = 0.25;
/// Probe batches kept for the module breakdown.
const MODULE_BATCHES: usize = 32;
/// The host's speed is sampled when the server is idle for at least this
/// long (a sample takes 1.4–3 ms) and the last sample is at least
/// `SAMPLE_EVERY` old.
const SAMPLE_GAP: Duration = Duration::from_millis(8);
const SAMPLE_EVERY: Duration = Duration::from_millis(25);
/// `latency_p95_ms` is the median over windows of this many seconds of the
/// schedule: a disk or host stall of a second or two fills one window.
const P95_WINDOW_S: f64 = 5.0;
/// A run whose generator woke later than this (p99, while the server was
/// idle) is flagged as disturbed by the host.
const MAX_LAG_P99_US: f64 = 200.0;

#[derive(Clone, Copy)]
struct Req {
    uid: usize,
    hour: u8,
    seed: u64,
}

struct Traffic {
    rng: Rng,
    n_users: usize,
    hot: Option<(Zipf, Vec<usize>)>,
    sweep_hours: bool,
}

impl Traffic {
    fn new(spec: &Spec, world: &World, seed: u64, purpose: u64) -> Self {
        let n_users = world.users.len();
        let hot = spec.zipf_users.then(|| {
            let mut order: Vec<usize> = (0..n_users).collect();
            Rng::stream(seed, 1).shuffle(&mut order);
            (Zipf::new(n_users, 1.1), order)
        });
        Self {
            rng: Rng::stream(seed, purpose),
            n_users,
            hot,
            sweep_hours: spec.sweep_hours,
        }
    }

    /// The next request, `frac` of the way through its phase.
    fn next(&mut self, frac: f64) -> Req {
        let uid = match &self.hot {
            Some((zipf, order)) => order[zipf.sample(&mut self.rng)],
            None => self.rng.below(self.n_users),
        };
        let hour = if self.sweep_hours {
            ((frac * 24.0) as u8).min(23)
        } else {
            12
        };
        Req {
            uid,
            hour,
            seed: self.rng.next_u64(),
        }
    }
}

/// One probe: the request re-derived through the public stages.
struct Probe {
    top: Vec<Ranked>,
    batch: Batch,
    took: Duration,
}

struct Server<'a> {
    spec: &'a Spec,
    world: &'a World,
    pipe: ServingPipeline,
    recall: LbsRecall,
    clicks: Rng,
    day: u16,
    digest: Digest,
    keys: Vec<KeyEvent>,
    batches: Vec<Batch>,
}

impl Server<'_> {
    fn request(&self, r: &Req) -> Request {
        Request {
            uid: r.uid,
            day: self.day,
            hour: r.hour,
            geo: self.world.users[r.uid].geo,
        }
    }

    fn serve(&mut self, r: &Req) -> Result<Vec<Exposure>, String> {
        let mut rng = Prng::seeded(r.seed);
        let ex = self
            .pipe
            .serve(self.world, self.request(r), &mut rng)
            .map_err(|e| format!("serve(user {}): {e}", r.uid))?;
        rank::check_top_k(&ex, TOP_K).map_err(|e| format!("serve(user {}): {e}", r.uid))?;
        self.digest.ranked(&rank::ranked(&ex));
        Ok(ex)
    }

    fn click(&mut self, r: &Req, ex: &[Exposure]) {
        for e in ex {
            if self.clicks.chance(self.spec.click_p) {
                let ordered = self.clicks.chance(ORDER_P);
                let event = click_event(self.world, e.item, r.hour);
                self.pipe.features.record_click(r.uid, event, ordered);
                self.keys.push(KeyEvent::Click { uid: r.uid as u32 });
            }
        }
    }

    /// Re-derive `r`'s top-k through the public stages (see `probe`),
    /// before `serve` runs.
    fn probe(&mut self, r: &Req, tr: &mut Tracer, unit: u64, parent: Option<usize>) -> Probe {
        let t0 = Instant::now();
        let p = tr.open("probe", unit, parent);
        let req = self.request(r);
        let arrival = Arrival {
            t_ns: 0,
            uid: req.uid,
            day: req.day,
            hour: req.hour,
            geo: req.geo,
            seed: r.seed,
        };
        let (mut tops, batch) = probe::rederive(
            &mut self.pipe,
            &self.recall,
            self.world,
            &[arrival],
            tr,
            unit,
            p,
        );
        let top = tops.pop().expect("one request, one top-k");
        tr.close(p);
        Probe {
            top,
            batch,
            took: t0.elapsed(),
        }
    }

    /// Check a probe against what `serve` returned.
    fn compare(&mut self, probe: Probe, ex: &[Exposure], uid: usize) -> Result<(), String> {
        let served = rank::ranked(ex);
        if self.batches.len() < MODULE_BATCHES {
            self.batches.push(probe.batch);
        }
        if served == probe.top {
            Ok(())
        } else {
            Err(format!(
                "user {uid}: serve() top-k {served:?} differs from the re-derived {:?}",
                probe.top
            ))
        }
    }

    /// One closed-loop warmup request, checked like any other.
    fn warm_step(&mut self, r: &Req, probe: bool, rep: &mut Report) {
        let p = probe.then(|| self.probe(r, &mut Tracer::new(false), u64::MAX, None));
        let out = self.serve(r).and_then(|ex| {
            self.click(r, &ex);
            p.map_or(Ok(()), |p| self.compare(p, &ex, r.uid))
        });
        rep.op(out);
    }
}

/// Wait for `due` by spinning, so the generator is late by a clock read
/// rather than a scheduler wake-up, which on a shared host can overshoot a
/// sleep by ~0.4 ms.
fn wait_until(due: Instant) {
    while Instant::now() < due {
        std::hint::spin_loop();
    }
}

pub fn run(
    spec: &Spec,
    args: &Args,
    rep: &mut Report,
    tr: &mut Tracer,
    host: &mut HostSpeed,
) -> Result<Run, String> {
    let io = |e: std::io::Error| format!("set-up: {e}");
    let run_dir = RunDir::new(&args.out, spec.name, args.seed).map_err(io)?;
    let ((world, pipe, ckpt), setup) = setup::repeated(host, |st| {
        let base = setup::base(&run_dir, false, st)?;
        let t = Instant::now();
        let pipe = ServingPipeline::new(&base.world, base.model, POOL, TOP_K);
        seed_histories(&base.world, &pipe.features, &mut Rng::stream(args.seed, 2));
        st.workload = t.elapsed().as_secs_f64();
        Ok((base.world, pipe, base.ckpt))
    })
    .map_err(io)?;
    let mut srv = Server {
        spec,
        world: &world,
        recall: LbsRecall::build(&world),
        pipe,
        clicks: Rng::stream(args.seed, 3),
        day: (world.config.train_days + world.config.test_days) as u16,
        digest: Digest::new(),
        keys: Vec::new(),
        batches: Vec::new(),
    };
    let pool_before = basm_tensor::bufpool::stats();
    let probe_every = if tr.enabled() {
        TRACE_PROBE_EVERY
    } else {
        CHECK_EVERY
    };

    // Warmup: closed loop, not timed.
    let mut warm = Traffic::new(spec, &world, args.seed, 10);
    for i in 0..WARMUP_REQUESTS {
        let r = warm.next(i as f64 / WARMUP_REQUESTS as f64);
        srv.keys.push(key(&world, &r));
        srv.warm_step(&r, i % CHECK_EVERY == 0, rep);
    }

    // Open loop at a fixed rate.
    let open_s = args.seconds;
    let times = poisson_arrivals(&mut Rng::stream(args.seed, 4), spec.rate, open_s);
    let mut traffic = Traffic::new(spec, &world, args.seed, 5);
    let schedule: Vec<(u64, Req)> = times
        .iter()
        .map(|&t| (t, traffic.next(t as f64 / 1e9 / open_s)))
        .collect();
    let mut latency_ms = Vec::with_capacity(schedule.len());
    let mut queue_ms = Vec::with_capacity(schedule.len());
    let mut serve_us = Vec::with_capacity(schedule.len());
    let mut busy_s = Vec::with_capacity(schedule.len());
    // When each capacity unit started.
    let mut busy_at = Vec::with_capacity(schedule.len());
    // Per request: due time on the schedule clock, when service started,
    // and the response and busy times.
    let mut served = Vec::with_capacity(schedule.len());
    let mut lag_us = Vec::new();
    host.sample();
    let origin = Instant::now() + Duration::from_millis(5);
    let mut paused = Duration::ZERO;
    for (i, (t, r)) in schedule.iter().enumerate() {
        let unit = i as u64;
        let due = origin + Duration::from_nanos(*t) + paused;
        let mut start = Instant::now();
        if start < due {
            let stale = host.last().is_none_or(|t| start - t >= SAMPLE_EVERY);
            if due - start >= SAMPLE_GAP && stale {
                host.sample();
            }
            wait_until(due);
            start = Instant::now();
            lag_us.push((start - due).as_secs_f64() * 1e6);
        }
        srv.keys.push(key(&world, r));
        let root = tr.open_at("request", unit, None, due);
        tr.record("queue_wait", unit, root, due, start);
        let probe = (i % probe_every == 0).then(|| srv.probe(r, tr, unit, root));
        let s0 = Instant::now();
        let out = srv.serve(r);
        let s1 = Instant::now();
        tr.record("serve", unit, root, s0, s1);
        tr.close(root);
        let probe_took = probe.as_ref().map_or(Duration::ZERO, |p| p.took);
        paused += probe_took;
        latency_ms.push((s1 - due - probe_took).as_secs_f64() * 1e3);
        queue_ms.push((start - due).as_secs_f64() * 1e3);
        let probed = probe.is_some();
        let outcome = out.and_then(|ex| {
            let checked = match probe {
                Some(p) => srv.compare(p, &ex, r.uid),
                None => Ok(()),
            };
            srv.click(r, &ex);
            checked
        });
        let s2 = Instant::now();
        tr.record("click", unit, None, s1, s2);
        served.push((*t as f64 / 1e9, s0, s1 - s0, s2 - s0));
        // A probed request runs warm; capacity counts the others.
        if !probed {
            serve_us.push((s1 - s0).as_secs_f64() * 1e6);
            busy_s.push((s2 - s0).as_secs_f64());
            busy_at.push(s0);
        }
        rep.op(outcome);
    }
    host.sample();
    let open_requests = schedule.len();
    // The latency the open loop would have had on the reference host: the
    // same FIFO queue replayed over the normalised service times. Scaling
    // measured latencies instead would leave in the queueing that a short
    // stall of the host causes, which one sample cannot see.
    let jobs: Vec<(f64, f64, f64)> = served
        .iter()
        .map(|&(due, at, respond, busy)| {
            let f = host.factor(at);
            (due, respond.as_secs_f64() * f, busy.as_secs_f64() * f)
        })
        .collect();
    let normalised_ms: Vec<f64> = fifo_latencies(&jobs).iter().map(|s| s * 1e3).collect();
    let windows = (open_s / P95_WINDOW_S).round().max(1.0);
    let window = jobs
        .iter()
        .map(|&(due, _, _)| ((due / open_s * windows) as usize).min(windows as usize - 1))
        .collect();
    let ones = vec![1.0; busy_s.len()];
    let normalised_busy: Vec<f64> = busy_s
        .iter()
        .zip(&busy_at)
        .map(|(s, &at)| s * host.factor(at))
        .collect();
    let capacity = windowed_rate(&ones, &busy_s, RATE_WINDOW);
    let normalised_capacity = windowed_rate(&ones, &normalised_busy, RATE_WINDOW);
    let pool_after = basm_tensor::bufpool::stats();
    let peak_rss_mb = peak_rss_mb();
    let repeat = repeat_key_share(&srv.keys);

    let pct = |xs: &[f64], p| percentile(xs, p).unwrap_or(0.0);
    let lag_p99 = pct(&lag_us, 99.0);
    rep.digest(srv.digest.value());
    rep.info("requests.open_loop", open_requests as f64, "count");
    rep.info("generator.lag_p99_us", lag_p99, "us");
    rep.info("queue.wait_p50_ms", pct(&queue_ms, 50.0), "ms");
    rep.info("queue.wait_p99_ms", pct(&queue_ms, 99.0), "ms");
    rep.info("pipeline.serve_p50_us", pct(&serve_us, 50.0), "us");
    rep.info("workload.repeat_key_share", repeat, "ratio");
    // The generator spins, so a late wake-up means the host took the core
    // away: the run's latencies then measure the host as well as the
    // program. That is a property of the host, not a wrong output, so it is
    // flagged rather than failed.
    if lag_p99 > MAX_LAG_P99_US {
        eprintln!(
            "[{}] warning: generator lag p99 {lag_p99:.0} us exceeds {MAX_LAG_P99_US} us; \
             the host was preempting this run",
            spec.name
        );
    }

    let mut layers = Layers::default();
    if tr.enabled() {
        layers.unit_ms = median(&latency_ms).unwrap_or(0.0);
        layers.unit_mean_us = mean(&latency_ms) * 1e3;
        for (k, name) in STAGES.iter().enumerate() {
            layers.stage_us[k] = match *name {
                "queue_wait" => mean(&queue_ms) * 1e3,
                _ => tr.mean_per_unit_us(name),
            };
        }
        layers.probed_other_us = tr.mean_per_unit_us("rank");
        layers.rows_per_unit = POOL as f64;
        // request, queue_wait, serve, click; plus a probe's six spans on
        // every `probe_every`-th request.
        layers.spans_per_unit = 4.0 + 6.0 / probe_every as f64;
        layers.modules =
            module_breakdown(&world.config, &ckpt, &srv.batches, false, 0.0, tr).map_err(io)?;
        layers.repeat_key_share = repeat;
    }
    drop(srv);
    Ok(Run {
        setup,
        latency_ms,
        normalised_ms,
        window,
        throughput: capacity,
        normalised_throughput: normalised_capacity,
        pool: (pool_before, pool_after),
        peak_rss_mb,
        layers,
    })
}

/// Due → response latencies of a FIFO single server, from each job's due
/// time, response time and busy time (response plus what the server does
/// before taking the next job), all in seconds.
fn fifo_latencies(jobs: &[(f64, f64, f64)]) -> Vec<f64> {
    let mut free = f64::NEG_INFINITY;
    jobs.iter()
        .map(|&(due, respond, busy)| {
            let start = due.max(free);
            free = start + busy;
            start + respond - due
        })
        .collect()
}

fn key(world: &World, r: &Req) -> KeyEvent {
    KeyEvent::Request {
        uid: r.uid as u32,
        geo: world.users[r.uid].geo,
        hour: r.hour,
    }
}

#[cfg(test)]
mod tests {
    use super::fifo_latencies;

    #[test]
    fn fifo_replay_queues_behind_busy_time() {
        // The second job waits for the first's click ingestion (busy 2 s),
        // the third arrives to an idle server.
        let jobs = [(0.0, 1.0, 2.0), (1.0, 1.0, 1.0), (5.0, 0.5, 1.0)];
        assert_eq!(fifo_latencies(&jobs), vec![1.0, 2.0, 0.5]);
        assert!(fifo_latencies(&[]).is_empty());
    }
}
