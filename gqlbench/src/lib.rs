//! # gqlbench — the wire-to-kernel GQL benchmark
//!
//! One run sets up in-process `gea-server`s (and `gea-router` in front of
//! them for the routed workload) on loopback, generates the workload's
//! corpus from the seed into a directory that the servers open with
//! `open <s> dir <path>`, then drives closed-loop clients for the timed
//! phase. Every client round is gated byte for byte against the client's
//! first round as it finishes, and the first against an in-process
//! reference replay after the phase (and, routed, against a direct
//! single server); a divergence, a failed request or an empty `mine`
//! makes the run fail instead of reporting numbers.
//!
//! An untraced run reports the end-to-end metrics. A traced run replays
//! every request through the [`trace`] shadow and reads each server's
//! `stats`, and reports the per-layer metrics. See `README.md` beside
//! this crate for the metric table and how to read a traced run.

pub mod dialogue;
pub mod live;
pub mod reference;
pub mod stats;
pub mod trace;
pub mod workload;

use std::fmt::Write as _;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::Barrier;
use std::time::{Duration, Instant};

use gea_server::wire;

use dialogue::{first_difference, Conversation, Round};
use live::{drive, BackendProbe, ClientRun, Sample, ScatterCost, WireClient};
use reference::Reference;
use stats::{median, quantile, ServerStats};
use trace::{Shadow, ShadowClient, SpanLog};
use workload::{
    generate_inputs, open_line, prep, replay, Fixture, Inputs, Plan, Scale, Workload, EXEC_THREADS,
};

/// The session every client of a workload shares.
pub const SESSION: &str = "bench";

/// One run's settings.
#[derive(Debug, Clone)]
pub struct Options {
    /// The traffic mix.
    pub workload: Workload,
    /// Input seed: the same seed makes the same corpus and dialogue.
    pub seed: u64,
    /// Length of the timed phase.
    pub seconds: f64,
    /// Report per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// Input size.
    pub scale: Scale,
    /// Where corpora are written (removed after the run) and span dumps
    /// kept.
    pub work_dir: PathBuf,
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Value as measured.
    pub value: f64,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: &'static str,
}

/// A correct run's result.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Requests sent in the timed phase.
    pub attempted: u64,
    /// Of those, failed (an `ERR` or a transport error).
    pub failed: u64,
    /// The metrics, in report order.
    pub metrics: Vec<Metric>,
    /// Human-readable lines printed before the result.
    pub notes: Vec<String>,
}

impl Outcome {
    /// The result line: one JSON object.
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name, m.value, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": true, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// The per-run scratch directory, removed when dropped.
struct WorkDir(PathBuf);

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Generate the workload's corpus from the seed into `dir`; returns the
/// inputs and the (generate, write) times in seconds.
fn generate(opts: &Options, dir: &Path) -> Result<(Inputs, f64, f64), String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    generate_inputs(opts.workload, opts.scale, opts.seed, dir)
        .map_err(|e| format!("writing the corpus: {e}"))
}

/// What the in-process reference said: the set-up dialogue, and one
/// round per client. Every round of a client repeats the same exchanges
/// (each writer round ends by deleting what it built), so these are what
/// every live round must equal.
struct Expected {
    prep: Round,
    rounds: Vec<Round>,
}

fn reference_rounds(opts: &Options, inputs: &Inputs) -> Result<Expected, String> {
    let mut reference = Reference::open(&inputs.dir)?;
    let mut c = Conversation::new(&mut reference);
    let plans = prep(opts.workload, opts.scale, inputs, &mut c);
    let prep_round = c.finish();
    let plans = plans.map_err(|e| format!("reference set-up: {e}"))?;
    let rounds = plans
        .iter()
        .map(|plan| replay(plan, &mut reference).map_err(|e| format!("reference: {e}")))
        .collect::<Result<_, _>>()?;
    Ok(Expected {
        prep: prep_round,
        rounds,
    })
}

/// Servers on a generated corpus, and connected clients.
struct Served<'s> {
    fixture: Fixture,
    plans: Vec<Plan>,
    prep: Round,
    clients: Vec<WireClient<'s>>,
}

/// Bind the servers (and router), then open the session, run the set-up
/// dialogue and attach one connection per client.
fn serve<'s>(opts: &Options, inputs: &Inputs) -> Result<Served<'s>, String> {
    let fixture = Fixture::spawn(opts.workload.backends(), opts.workload.routed())
        .map_err(|e| format!("binding servers: {e}"))?;
    match connect_clients(opts, &fixture, inputs) {
        Ok((plans, prep, clients)) => Ok(Served {
            fixture,
            plans,
            prep,
            clients,
        }),
        Err(e) => {
            fixture.shutdown();
            Err(e)
        }
    }
}

/// Open the session, run the set-up dialogue, and attach one connection
/// per client.
fn connect_clients<'s>(
    opts: &Options,
    fixture: &Fixture,
    inputs: &Inputs,
) -> Result<(Vec<Plan>, Round, Vec<WireClient<'s>>), String> {
    let connect = || WireClient::connect(fixture.front()).map_err(|e| format!("connect: {e}"));
    let mut admin = connect()?;
    admin.expect_ok(&open_line(SESSION, &inputs.dir))?;
    let mut c = Conversation::new(&mut admin);
    let plans = prep(opts.workload, opts.scale, inputs, &mut c);
    let prep_round = c.finish();
    let plans = plans.map_err(|e| format!("set-up dialogue: {e}"))?;
    let mut clients = Vec::new();
    for _ in &plans {
        let mut client = connect()?;
        client.expect_ok(&format!("use {SESSION}"))?;
        clients.push(client);
    }
    Ok((plans, prep_round, clients))
}

/// Every server's `stats`, in shard order.
fn server_stats(fixture: &Fixture) -> Result<Vec<ServerStats>, String> {
    fixture
        .backends()
        .into_iter()
        .map(|addr| {
            let mut c = WireClient::connect(addr).map_err(|e| format!("connect: {e}"))?;
            c.expect_ok("stats").map(|text| ServerStats::parse(&text))
        })
        .collect()
}

/// Exact counts from one quiet round per client after the timed phase.
#[derive(Debug, Default)]
struct Counts {
    opt_rewrites: u64,
    exec_shards: u64,
    fascicles: usize,
    xverbs: u64,
    scatters: u64,
    writes: u64,
    replies: u64,
    rounds: Vec<Round>,
}

/// A writer that counts `write` calls.
struct CountingWriter(u64);

impl std::io::Write for CountingWriter {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0 += 1;
        Ok(buf.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// `write` calls `wire::write_ok`/`write_err` makes for a transcript
/// entry's reply.
fn writes_for(entry: &str) -> u64 {
    let mut w = CountingWriter(0);
    let reply = entry.split_once('\n').map_or("", |(_, r)| r);
    let _ = match reply.strip_prefix("OK\n").or(reply.strip_prefix("OK")) {
        Some(payload) => wire::write_ok(&mut w, payload),
        None => {
            let rest = reply.strip_prefix("ERR ").unwrap_or(reply);
            let (code, message) = rest.split_once(' ').unwrap_or((rest, ""));
            wire::write_err(&mut w, code, message)
        }
    };
    w.0
}

fn count_round(fixture: &Fixture, plans: &[Plan]) -> Result<Counts, String> {
    let before = server_stats(fixture)?;
    let mut counts = Counts::default();
    for plan in plans {
        let mut c = WireClient::connect(fixture.front()).map_err(|e| format!("connect: {e}"))?;
        c.expect_ok(&format!("use {SESSION}"))?;
        let round = replay(plan, &mut c).map_err(|e| format!("count round: {e}"))?;
        counts.scatters += c.samples.items().iter().filter(|s| s.class.scatter).count() as u64;
        counts.fascicles += round.clusters.iter().sum::<usize>();
        counts.replies += round.transcript.len() as u64;
        counts.writes += round.transcript.iter().map(|e| writes_for(e)).sum::<u64>();
        counts.rounds.push(round);
    }
    let delta = ServerStats::delta(&server_stats(fixture)?, &before);
    counts.opt_rewrites = delta.counter("opt_rewrites");
    counts.exec_shards = delta.counter("exec_shards");
    counts.xverbs = delta.xverbs().0;
    Ok(counts)
}

/// Reset the process's peak-RSS mark to its current RSS, so the peak
/// read after the timed phase is that phase's.
fn reset_peak_rss() -> Result<(), String> {
    std::fs::write("/proc/self/clear_refs", "5").map_err(|e| format!("resetting peak RSS: {e}"))
}

/// Peak resident memory of this process since the last reset, MB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading peak RSS: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

/// Latencies of the samples matching `class`; a failed request counts as
/// slower than every sample.
fn latencies(samples: &[Sample], class: impl Fn(&Sample) -> bool) -> Vec<f64> {
    samples
        .iter()
        .filter(|s| class(s))
        .map(|s| if s.ok { s.ms } else { f64::INFINITY })
        .collect()
}

fn required(name: &str, v: Option<f64>) -> Result<f64, String> {
    match v {
        Some(x) if x.is_finite() => Ok(x),
        Some(_) => Err(format!(
            "{name}: a failed request fell inside the percentile"
        )),
        None => Err(format!("{name}: the workload produced no samples")),
    }
}

/// Run the benchmark once.
pub fn run(opts: &Options) -> Result<Outcome, String> {
    run_with(opts, |_| {})
}

/// [`run`], with `tamper` applied to the reference rounds before any
/// live round is compared with them.
fn run_with(opts: &Options, tamper: impl FnOnce(&mut [Round])) -> Result<Outcome, String> {
    let w = opts.workload;
    let work =
        WorkDir(
            opts.work_dir
                .join(format!("{}-{}-{}", w.name(), opts.seed, std::process::id())),
        );
    let shadow = Shadow::new();
    let started = Instant::now();
    let (inputs, generate_s, write_s) = generate(opts, &work.0.join("corpus-0"))?;
    let Served {
        fixture,
        plans,
        prep: live_prep,
        mut clients,
    } = serve(opts, &inputs)?;
    let mut setup_s = vec![started.elapsed().as_secs_f64()];

    let result = measure(opts, &shadow, &fixture, &inputs, &plans, &mut clients);
    drop(clients);
    // The reference is made after the timed phase, so none of its memory
    // (freed or not) sits under the phase's peak.
    let gated = result.and_then(|(runs, measured)| {
        let mut expected = reference_rounds(opts, &inputs)?;
        tamper(&mut expected.rounds);
        gate(
            opts, &inputs, &plans, &live_prep, &expected, &runs, &measured,
        )?;
        Ok((runs, measured))
    });
    fixture.shutdown();
    let (runs, measured) = gated?;
    // Two more set-ups for a steadier `setup_s` (the median of three),
    // after the timed phase so their freed memory never sits under it.
    let setups = if opts.scale == Scale::Full && !opts.trace {
        3
    } else {
        1
    };
    for rep in 1..setups {
        let started = Instant::now();
        let (inputs, _, _) = generate(opts, &work.0.join(format!("corpus-{rep}")))?;
        let again = serve(opts, &inputs)?;
        setup_s.push(started.elapsed().as_secs_f64());
        drop(again.clients);
        again.fixture.shutdown();
    }

    let mut notes = vec![
        format!(
            "gqlbench workload={} seed={} seconds={} trace={} scale={:?} exec_threads={EXEC_THREADS} host_parallelism={}",
            w.name(),
            opts.seed,
            opts.seconds,
            u8::from(opts.trace),
            opts.scale,
            std::thread::available_parallelism().map_or(1, |n| n.get()),
        ),
        format!("corpus: {}", inputs.dir.display()),
        format!("setup_s samples: {setup_s:.4?}"),
    ];
    for (plan, run) in plans.iter().zip(&runs) {
        notes.push(format!(
            "client {}: {} rounds, each byte-identical to the reference",
            plan.name(),
            run.rounds
        ));
    }
    let (attempted, failed) = (measured.attempted, measured.failed);
    notes.push(format!(
        "failed_frac {} ({failed}/{attempted}); phase {:.3} s",
        failed as f64 / attempted.max(1) as f64,
        measured.phase_s
    ));
    let metrics = if opts.trace {
        layer_metrics(opts, &measured, generate_s, write_s, &mut notes)?
    } else {
        end_to_end(&runs, &plans, &measured, &setup_s, &mut notes)?
    };
    if opts.trace {
        dump_spans(opts, &measured, &mut notes);
    }
    Ok(Outcome {
        attempted,
        failed,
        metrics,
        notes,
    })
}

/// What the timed phase (and, traced, its aftermath) measured.
struct Measured {
    attempted: u64,
    failed: u64,
    /// Every client's kept latency samples.
    samples: Vec<Sample>,
    phase_s: f64,
    peak_rss_mb: f64,
    shadow_logs: Vec<SpanLog>,
    shadow_divergence: Vec<String>,
    scatter_costs: Vec<ScatterCost>,
    stats: Option<ServerStats>,
    counts: Option<Counts>,
    backends: usize,
}

fn measure<'s>(
    opts: &Options,
    shadow: &'s Shadow,
    fixture: &Fixture,
    inputs: &Inputs,
    plans: &[Plan],
    clients: &mut [WireClient<'s>],
) -> Result<(Vec<ClientRun>, Measured), String> {
    let epoch = Instant::now();
    let mut setup_log = SpanLog::new(epoch);
    let before = if opts.trace {
        shadow.open(SESSION, &inputs.dir, &mut setup_log)?;
        // Build the set-up dialogue's tables in the shadow too.
        let mut builder = ShadowClient::new(shadow, SESSION, epoch, 0);
        prep(
            opts.workload,
            opts.scale,
            inputs,
            &mut Conversation::new(&mut builder),
        )
        .map_err(|e| format!("shadow set-up: {e}"))?;
        for (i, c) in clients.iter_mut().enumerate() {
            // Request ids of client i start at i·2^40, unique per run.
            c.shadow = Some(ShadowClient::new(shadow, SESSION, epoch, (i as u64) << 40));
            if opts.workload.routed() {
                c.probe = Some(
                    BackendProbe::connect(&fixture.backends())
                        .map_err(|e| format!("connect: {e}"))?,
                );
            }
        }
        Some(server_stats(fixture)?)
    } else {
        None
    };
    let mut runs: Vec<ClientRun> = plans.iter().map(|_| ClientRun::default()).collect();
    let barrier = Barrier::new(clients.len());
    reset_peak_rss()?;
    let started = Instant::now();
    let deadline = started + Duration::from_secs_f64(opts.seconds);
    std::thread::scope(|s| {
        for ((client, plan), run) in clients.iter_mut().zip(plans).zip(&mut runs) {
            let barrier = &barrier;
            s.spawn(move || {
                barrier.wait();
                drive(client, plan, deadline, run)
            });
        }
    });
    let phase_s = started.elapsed().as_secs_f64();
    let peak_rss_mb = peak_rss_mb()?;
    let mut measured = Measured {
        attempted: clients.iter().map(|c| c.attempted).sum(),
        failed: clients.iter().map(|c| c.failed).sum(),
        samples: clients
            .iter()
            .flat_map(|c| c.samples.items().iter().copied())
            .collect(),
        phase_s,
        peak_rss_mb,
        shadow_logs: vec![setup_log],
        shadow_divergence: clients
            .iter()
            .filter_map(|c| c.shadow_divergence.clone())
            .collect(),
        scatter_costs: Vec::new(),
        stats: None,
        counts: None,
        backends: fixture.backends().len(),
    };
    for c in clients.iter_mut() {
        if let Some(sc) = c.shadow.take() {
            measured.shadow_logs.push(sc.log);
        }
        measured.scatter_costs.append(&mut c.scatter_costs);
    }
    if let Some(before) = before {
        measured.stats = Some(ServerStats::delta(&server_stats(fixture)?, &before));
        measured.counts = Some(count_round(fixture, plans)?);
    }
    Ok((runs, measured))
}

/// The correctness gate: the set-up dialogue and every client's first
/// round must equal the reference (every later round already equalled
/// the first, or failed the client); no client round may have failed,
/// nor (traced) a shadow reply differed from the live one or a count
/// round from the reference; routed, a direct single server must give
/// the reference rounds too.
fn gate(
    opts: &Options,
    inputs: &Inputs,
    plans: &[Plan],
    live_prep: &Round,
    expected: &Expected,
    runs: &[ClientRun],
    measured: &Measured,
) -> Result<(), String> {
    let want = &expected.rounds;
    let mut problems: Vec<String> = runs.iter().filter_map(|r| r.failure.clone()).collect();
    problems.extend(first_difference(
        "set-up dialogue",
        live_prep,
        &expected.prep,
    ));
    for ((plan, run), want) in plans.iter().zip(runs).zip(want) {
        if let Some(first) = &run.first {
            problems.extend(first_difference(
                &format!("client {} round 0", plan.name()),
                first,
                want,
            ));
        }
    }
    problems.extend(measured.shadow_divergence.iter().cloned());
    if let Some(counts) = &measured.counts {
        for (got, want) in counts.rounds.iter().zip(want) {
            problems.extend(first_difference("count round", got, want));
        }
    }
    if opts.workload.routed() {
        let direct = Fixture::spawn(1, false).map_err(|e| format!("direct server: {e}"))?;
        let replies = direct_rounds(opts, &direct, inputs, plans);
        direct.shutdown();
        for (k, got) in replies?.iter().enumerate() {
            problems.extend(first_difference(
                &format!("direct server client {k}"),
                got,
                &want[k],
            ));
        }
    }
    if problems.is_empty() {
        Ok(())
    } else {
        Err(problems.join("\n"))
    }
}

/// One round per client against a direct single server.
fn direct_rounds(
    opts: &Options,
    direct: &Fixture,
    inputs: &Inputs,
    plans: &[Plan],
) -> Result<Vec<Round>, String> {
    let (_, _, mut clients) = connect_clients(opts, direct, inputs)?;
    plans
        .iter()
        .zip(clients.iter_mut())
        .map(|(plan, c)| replay(plan, c).map_err(|e| format!("direct server: {e}")))
        .collect()
}

fn end_to_end(
    runs: &[ClientRun],
    plans: &[Plan],
    measured: &Measured,
    setup_s: &[f64],
    notes: &mut Vec<String>,
) -> Result<Vec<Metric>, String> {
    let samples = &measured.samples;
    let read = latencies(samples, |s| s.class.read);
    let write = latencies(samples, |s| s.class.write && s.verb != "open");
    let scan = latencies(samples, |s| s.class.scan);
    let pipeline: Vec<f64> = plans
        .iter()
        .zip(runs)
        .filter(|(p, _)| p.is_pipeline())
        .flat_map(|(_, r)| r.round_s.items().iter().copied())
        .collect();
    notes.push(format!(
        "samples: read {} write {} scan {} pipeline rounds {}",
        read.len(),
        write.len(),
        scan.len(),
        pipeline.len()
    ));
    let mut by_verb: std::collections::BTreeMap<&str, Vec<f64>> = Default::default();
    for s in samples {
        by_verb.entry(s.verb).or_default().push(s.ms);
    }
    for (verb, ms) in &by_verb {
        notes.push(format!(
            "  {:>9.3} ms median of {:>4}  {verb}",
            median(ms).unwrap_or(0.0),
            ms.len(),
        ));
    }
    let completed = (measured.attempted - measured.failed) as f64;
    let m = |name, value, unit| Metric { name, value, unit };
    Ok(vec![
        m("setup_s", required("setup_s", median(setup_s))?, "s"),
        m(
            "read_p50_ms",
            required("read_p50_ms", quantile(&read, 0.5))?,
            "ms",
        ),
        m(
            "read_p95_ms",
            required("read_p95_ms", quantile(&read, 0.95))?,
            "ms",
        ),
        m(
            "write_p50_ms",
            required("write_p50_ms", quantile(&write, 0.5))?,
            "ms",
        ),
        m(
            "write_p95_ms",
            required("write_p95_ms", quantile(&write, 0.95))?,
            "ms",
        ),
        m(
            "scan_p50_ms",
            required("scan_p50_ms", quantile(&scan, 0.5))?,
            "ms",
        ),
        m(
            "pipeline_s",
            required("pipeline_s", median(&pipeline))?,
            "s",
        ),
        m("throughput_rps", completed / measured.phase_s, "req/s"),
        m("peak_rss_mb", measured.peak_rss_mb, "MB"),
    ])
}

/// Span durations (or self times) by name, optionally for one verb, in
/// the given unit (ns per unit); without scattered requests' spans on a
/// routed run, since the backends do not run the shadow's path for them.
struct SpanView<'a> {
    logs: &'a [SpanLog],
    own: Vec<Vec<u64>>,
    routed: bool,
}

impl<'a> SpanView<'a> {
    fn new(logs: &'a [SpanLog], routed: bool) -> SpanView<'a> {
        SpanView {
            logs,
            own: logs.iter().map(SpanLog::self_ns).collect(),
            routed,
        }
    }

    /// Whether `span` stands for work a server did.
    fn counts(&self, span: &trace::Span) -> bool {
        !(self.routed && span.scatter)
    }

    fn values(
        &self,
        name: &str,
        verb: Option<&str>,
        self_time: bool,
        ns_per_unit: f64,
    ) -> Vec<f64> {
        let mut out = Vec::new();
        for (log, own) in self.logs.iter().zip(&self.own) {
            for (s, own) in log.spans.iter().zip(own) {
                if s.name == name && verb.is_none_or(|v| v == s.verb) && self.counts(s) {
                    let ns = if self_time { *own } else { s.dur_ns };
                    out.push(ns as f64 / ns_per_unit);
                }
            }
        }
        out
    }

    /// Median duration, 0 when the span never ran.
    fn median(&self, name: &str, verb: Option<&str>, ns_per_unit: f64) -> f64 {
        median(&self.values(name, verb, false, ns_per_unit)).unwrap_or(0.0)
    }
}

const US: f64 = 1e3;
const MS: f64 = 1e6;

fn layer_metrics(
    opts: &Options,
    measured: &Measured,
    generate_s: f64,
    write_s: f64,
    notes: &mut Vec<String>,
) -> Result<Vec<Metric>, String> {
    let stats = measured.stats.as_ref().ok_or("traced run without stats")?;
    let counts = measured
        .counts
        .as_ref()
        .ok_or("traced run without counts")?;
    let routed = opts.workload.routed();
    let spans = SpanView::new(&measured.shadow_logs, routed);
    let samples = &measured.samples;

    // Per verb: client mean latency minus the servers' mean.
    let mut stalls = Vec::new();
    let mut verbs: Vec<&str> = samples.iter().map(|s| s.verb).collect();
    verbs.sort_unstable();
    verbs.dedup();
    for verb in &verbs {
        let client: Vec<f64> = samples
            .iter()
            .filter(|s| s.verb == *verb)
            .map(|s| s.ms)
            .collect();
        if let Some(&(n, us)) = stats.verbs.get(*verb).filter(|(n, _)| *n > 0) {
            let client_mean = client.iter().sum::<f64>() / client.len() as f64;
            let server_mean = us as f64 / n as f64 / 1e3;
            notes.push(format!(
                "verb {verb}: client mean {client_mean:.3} ms over {}, server mean {server_mean:.3} ms over {n}, stall {:.3} ms",
                client.len(),
                client_mean - server_mean
            ));
            stalls.push(client_mean - server_mean);
        }
    }
    let hits = stats.counter("cache_hits") as f64;
    let lookups = hits + stats.counter("cache_misses") as f64;
    let lock = spans.values("registry.lock_wait", None, false, MS);
    // The servers' own record of their parallel sections.
    let [sections, _, exec_wall, exec_cpu] = stats.exec_total();

    let scatter_ms: Vec<f64> = samples
        .iter()
        .filter(|s| s.class.scatter)
        .map(|s| s.ms)
        .collect();
    let (x_n, x_us) = stats.xverbs();
    let backend_ms = if routed && !scatter_ms.is_empty() {
        x_us as f64 / 1e3 / measured.backends as f64 / scatter_ms.len() as f64
    } else {
        0.0
    };
    notes.push(format!(
        "backend verbs in the timed phase: {x_n} requests over {} scatters",
        scatter_ms.len()
    ));
    let read_overhead = if routed {
        let reads: Vec<&Sample> = samples.iter().filter(|s| s.class.read).collect();
        let client: f64 = reads.iter().map(|s| s.ms).sum();
        let mut read_verbs: Vec<&str> = reads.iter().map(|s| s.verb).collect();
        read_verbs.sort_unstable();
        read_verbs.dedup();
        let server: f64 = read_verbs
            .iter()
            .filter_map(|v| stats.verbs.get(*v))
            .map(|&(_, us)| us as f64 / 1e3)
            .sum();
        (client - server) / reads.len().max(1) as f64
    } else {
        0.0
    };
    // A kernel's time per request of `verb`. Routed, the scattered verbs
    // run as one shard per backend: each backend's mean server-side time
    // of its `xpart`, read from its `stats` around the request. Otherwise
    // the shadow's engine call, inclusive.
    let kernel_ms = |verb: &str| -> f64 {
        if routed {
            let per_request: Vec<f64> = measured
                .scatter_costs
                .iter()
                .filter(|c| c.verb == verb)
                .filter_map(|c| c.stats.verbs.get("xpart"))
                .filter(|(n, _)| *n > 0)
                .map(|&(n, us)| us as f64 / n as f64 / 1e3)
                .collect();
            median(&per_request).unwrap_or(0.0)
        } else {
            spans.median("engine.write", Some(verb), MS)
        }
    };
    if routed {
        let apply: Vec<f64> = measured
            .scatter_costs
            .iter()
            .filter_map(|c| c.stats.verbs.get("xapply"))
            .filter(|(n, _)| *n > 0)
            .map(|&(n, us)| us as f64 / n as f64 / 1e3)
            .collect();
        notes.push(format!(
            "routed: kernel.* are backends' xpart times, per backend, over {} scattered requests; \
             their xapply (merge and install) takes {:.3} ms per backend at the median; \
             the shadow's spans (engine.*, check.*, opt.*_us, cache.*_us, registry.*_ms, \
             wire.render_us) leave scattered requests out",
            measured.scatter_costs.len(),
            median(&apply).unwrap_or(0.0)
        ));
    }
    let per_scatter = |n: u64| {
        if counts.scatters == 0 {
            0.0
        } else {
            n as f64 / counts.scatters as f64
        }
    };
    let traced =
        |class: fn(&Sample) -> bool, q: f64| quantile(&latencies(samples, class), q).unwrap_or(0.0);
    let completed = (measured.attempted - measured.failed) as f64;
    let m = |name, value, unit| Metric { name, value, unit };
    Ok(vec![
        m("wire.stall_ms", median(&stalls).unwrap_or(0.0), "ms"),
        m(
            "wire.writes_per_reply",
            counts.writes as f64 / counts.replies.max(1) as f64,
            "count",
        ),
        m(
            "wire.render_us",
            spans.median("wire.render", None, US),
            "us",
        ),
        m(
            "check.parse_us",
            spans.median("check.parse", None, US),
            "us",
        ),
        m("check.cost_us", spans.median("check.cost", None, US), "us"),
        m("opt.key_us", spans.median("opt.key", None, US), "us"),
        m(
            "opt.rewrite_us",
            spans.median("opt.rewrite", None, US),
            "us",
        ),
        m("opt.rewrites", counts.opt_rewrites as f64, "count"),
        m(
            "cache.hit_ratio",
            if lookups > 0.0 { hits / lookups } else { 0.0 },
            "ratio",
        ),
        m("cache.get_us", spans.median("cache.get", None, US), "us"),
        m(
            "cache.insert_us",
            spans.median("cache.insert", None, US),
            "us",
        ),
        m(
            "cache.evictions",
            stats.counter("cache_evictions") as f64,
            "count",
        ),
        m(
            "cache.rejected",
            stats.counter("cache_rejected") as f64,
            "count",
        ),
        m(
            "registry.lock_wait_p50_ms",
            quantile(&lock, 0.5).unwrap_or(0.0),
            "ms",
        ),
        m(
            "registry.lock_wait_p95_ms",
            quantile(&lock, 0.95).unwrap_or(0.0),
            "ms",
        ),
        m(
            "registry.release_ms",
            spans.median("registry.release", None, MS),
            "ms",
        ),
        m(
            "engine.read_ms",
            median(&spans.values("engine.read", None, true, MS)).unwrap_or(0.0),
            "ms",
        ),
        m(
            "engine.write_ms",
            median(&spans.values("engine.write", None, true, MS)).unwrap_or(0.0),
            "ms",
        ),
        m(
            "exec.wall_ms",
            if sections > 0 {
                exec_wall as f64 / sections as f64 / 1e3
            } else {
                0.0
            },
            "ms",
        ),
        m(
            "exec.busy_ratio",
            if exec_wall > 0 {
                exec_cpu as f64 / (exec_wall as f64 * EXEC_THREADS as f64)
            } else {
                0.0
            },
            "ratio",
        ),
        m("exec.shards", counts.exec_shards as f64, "count"),
        m("kernel.mine_ms", kernel_ms("mine"), "ms"),
        m("kernel.populate_ms", kernel_ms("populate"), "ms"),
        m("kernel.aggregate_ms", kernel_ms("groups"), "ms"),
        m("kernel.fascicles", counts.fascicles as f64, "count"),
        m("sage.generate_ms", generate_s * 1e3, "ms"),
        m("sage.write_dir_ms", write_s * 1e3, "ms"),
        m(
            "sage.read_dir_ms",
            spans.median("sage.read_dir", None, MS),
            "ms",
        ),
        m("sage.clean_ms", spans.median("sage.clean", None, MS), "ms"),
        m(
            "router.xverbs_per_scatter",
            per_scatter(counts.xverbs),
            "count",
        ),
        m("router.backend_ms", backend_ms, "ms"),
        m(
            "router.overhead_ms",
            if routed {
                median(&scatter_ms).unwrap_or(0.0) - backend_ms
            } else {
                0.0
            },
            "ms",
        ),
        m("router.read_overhead_ms", read_overhead, "ms"),
        m("traced.read_p50_ms", traced(|s| s.class.read, 0.5), "ms"),
        m("traced.write_p50_ms", traced(|s| s.class.write, 0.5), "ms"),
        m(
            "traced.throughput_rps",
            completed / measured.phase_s,
            "req/s",
        ),
    ])
}

/// Print where the shadow's request time went, per span name, and write
/// every span to `<work_dir>/spans-<workload>-<seed>.tsv`.
fn dump_spans(opts: &Options, measured: &Measured, notes: &mut Vec<String>) {
    let view = SpanView::new(&measured.shadow_logs, opts.workload.routed());
    let mut by_name: std::collections::BTreeMap<&str, (usize, u64)> = Default::default();
    let mut tsv =
        String::from("client\treq\tspan\tparent\tname\tverb\tscatter\tstart_ns\tdur_ns\tself_ns\n");
    for (client, (log, own)) in view.logs.iter().zip(&view.own).enumerate() {
        for (i, (s, &own)) in log.spans.iter().zip(own).enumerate() {
            if s.req == 0 {
                notes.push(format!(
                    "set-up span {}: {:.3} ms",
                    s.name,
                    s.dur_ns as f64 / MS
                ));
            } else if view.counts(s) {
                let slot = by_name.entry(s.name).or_default();
                slot.0 += 1;
                slot.1 += own;
            }
            let parent = s.parent.map_or("-".to_string(), |p| p.to_string());
            let _ = writeln!(
                tsv,
                "{client}\t{}\t{i}\t{parent}\t{}\t{}\t{}\t{}\t{}\t{own}",
                s.req,
                s.name,
                s.verb,
                u8::from(s.scatter),
                s.start_ns,
                s.dur_ns
            );
        }
    }
    let requests = by_name.get("request").map_or(0, |r| r.0).max(1);
    let left_out = if view.routed {
        ", scattered requests left out"
    } else {
        ""
    };
    notes.push(format!(
        "self time per shadow request ({requests} requests{left_out}):"
    ));
    for (name, (n, own)) in &by_name {
        notes.push(format!(
            "  {name:<20} {n:>7} spans  {:>10.1} us/request",
            *own as f64 / US / requests as f64
        ));
    }
    let path = opts
        .work_dir
        .join(format!("spans-{}-{}.tsv", opts.workload.name(), opts.seed));
    match std::fs::File::create(&path).and_then(|mut f| f.write_all(tsv.as_bytes())) {
        Ok(()) => notes.push(format!("spans written to {}", path.display())),
        Err(e) => notes.push(format!("spans not written: {e}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_corrupted_reference_round_trips_the_gate() {
        let opts = Options {
            workload: Workload::Interactive,
            seed: 2026,
            seconds: 0.2,
            trace: false,
            scale: Scale::Kick,
            work_dir: Path::new(env!("CARGO_MANIFEST_DIR")).join(".gqlbench-work/test-gate"),
        };
        let err = run_with(&opts, |want| want[0].transcript[0].push('~'))
            .expect_err("a corrupted reference must trip the gate");
        assert!(
            err.contains("client reader round 0: exchange 0") && err.contains("differs"),
            "{err}"
        );
    }
}
