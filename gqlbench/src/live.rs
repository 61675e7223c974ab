//! The live clients: closed-loop request timing over loopback TCP.
//!
//! [`WireClient::send`] is the one place a request is timed, classified
//! and counted as failed.
//!
//! What a client keeps of the timed phase does not grow with the number
//! of requests it completes: each round after the first is compared
//! with the first as it finishes and dropped, and latencies go to a
//! [`Reservoir`] allocated and written before the phase starts. So the
//! growth of the phase's peak resident memory is the servers'.

use std::net::SocketAddr;
use std::time::Instant;

use gea_server::gql::{self, GqlCommand, Request};
use gea_server::wire::Reply;
use gea_server::{EffectTable, GeaClient};

use crate::dialogue::{entry, first_difference, Round, Transport};
use crate::stats::ServerStats;
use crate::trace::ShadowClient;
use crate::workload::{replay, Plan};

/// The latency classes of the end-to-end metrics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Class {
    /// A read verb (`EffectTable` is_read).
    pub read: bool,
    /// A mutating verb other than `open`.
    pub write: bool,
    /// A scan-shaped verb: `mine` in every form, `populate … from`,
    /// `groups`.
    pub scan: bool,
    /// A verb `gea-router` scatters over its backends.
    pub scatter: bool,
}

/// Classify a request line; returns its verb and class.
pub fn classify(line: &str) -> (&'static str, Class) {
    match gql::parse(line) {
        Ok(Some(Request::Gql(cmd))) => {
            let read = cmd.is_read();
            let scan = matches!(
                cmd,
                GqlCommand::Mine { .. }
                    | GqlCommand::MineWith { .. }
                    | GqlCommand::Groups(_)
                    | GqlCommand::Populate { from: Some(_), .. }
            );
            (
                cmd.verb(),
                Class {
                    read,
                    write: !read,
                    scan,
                    scatter: EffectTable::of(&cmd).scatterable,
                },
            )
        }
        Ok(Some(req)) => (req.verb(), Class::default()),
        _ => ("parse", Class::default()),
    }
}

/// Latency samples a client keeps: every request up to this many, then
/// a uniform random subset of this size.
pub const SAMPLE_CAPACITY: usize = 1 << 14;

/// Round times a client keeps, likewise.
pub const ROUND_CAPACITY: usize = 1 << 12;

/// A uniform random sample of at most `capacity` of the items pushed
/// (Vitter's algorithm R), in a buffer allocated and written when it is
/// made, so pushing never adds resident memory. Exact while fewer than
/// `capacity` items have been pushed.
#[derive(Debug)]
pub struct Reservoir<T> {
    items: Vec<T>,
    capacity: usize,
    seen: u64,
    rng: u64,
}

impl<T: Copy + Default> Reservoir<T> {
    /// An empty reservoir holding at most `capacity` items.
    pub fn new(capacity: usize) -> Reservoir<T> {
        let mut items = Vec::with_capacity(capacity);
        // Write every slot now, so its pages are resident before any
        // measurement starts.
        for _ in 0..capacity {
            items.push(std::hint::black_box(T::default()));
        }
        items.clear();
        Reservoir {
            items,
            capacity,
            seen: 0,
            rng: 0x9E37_79B9_7F4A_7C15,
        }
    }

    /// Offer one item.
    pub fn push(&mut self, item: T) {
        self.seen += 1;
        if self.items.len() < self.capacity {
            self.items.push(item);
            return;
        }
        // xorshift64
        self.rng ^= self.rng << 13;
        self.rng ^= self.rng >> 7;
        self.rng ^= self.rng << 17;
        let slot = (self.rng % self.seen) as usize;
        if slot < self.capacity {
            self.items[slot] = item;
        }
    }

    /// The items kept.
    pub fn items(&self) -> &[T] {
        &self.items
    }
}

/// One timed request.
#[derive(Debug, Clone, Copy, Default)]
pub struct Sample {
    /// The command verb.
    pub verb: &'static str,
    /// Its latency classes.
    pub class: Class,
    /// Client-observed latency, ms.
    pub ms: f64,
    /// `false` for an `ERR` reply (every `ERR` is unexpected: no round
    /// provokes one) or a transport error.
    pub ok: bool,
}

/// Connections to every backend, for reading their `stats` around each
/// scattered request of a traced routed run.
pub struct BackendProbe {
    backends: Vec<GeaClient>,
}

impl BackendProbe {
    /// Connect to every backend.
    pub fn connect(addrs: &[SocketAddr]) -> std::io::Result<BackendProbe> {
        let backends = addrs
            .iter()
            .map(|a| GeaClient::connect(*a))
            .collect::<std::io::Result<_>>()?;
        Ok(BackendProbe { backends })
    }

    /// Every backend's `stats`, in shard order.
    pub fn read(&mut self) -> Result<Vec<ServerStats>, String> {
        self.backends
            .iter_mut()
            .map(|c| {
                c.expect_ok("stats")
                    .map(|text| ServerStats::parse(&text))
                    .map_err(|e| format!("backend stats: {e}"))
            })
            .collect()
    }
}

/// What the backends did for one scattered request, all backends added
/// together.
#[derive(Debug, Clone)]
pub struct ScatterCost {
    /// The scattered command's verb.
    pub verb: &'static str,
    /// The backends' `stats` difference across the request.
    pub stats: ServerStats,
}

/// A connection that times every request it sends and, in a traced run,
/// replays it through the shadow.
pub struct WireClient<'s> {
    client: GeaClient,
    /// Requests sent so far.
    pub attempted: u64,
    /// Of those, failed.
    pub failed: u64,
    /// Their latencies.
    pub samples: Reservoir<Sample>,
    /// The traced run's shadow of this client.
    pub shadow: Option<ShadowClient<'s>>,
    /// The first request whose shadow reply differed from the live one.
    pub shadow_divergence: Option<String>,
    /// A traced routed run's view of the backends.
    pub probe: Option<BackendProbe>,
    /// The backends' work for each scattered request, when probed.
    pub scatter_costs: Vec<ScatterCost>,
}

impl<'s> WireClient<'s> {
    /// Connect to `addr`.
    pub fn connect(addr: SocketAddr) -> std::io::Result<WireClient<'s>> {
        Ok(WireClient {
            client: GeaClient::connect(addr)?,
            attempted: 0,
            failed: 0,
            samples: Reservoir::new(SAMPLE_CAPACITY),
            shadow: None,
            shadow_divergence: None,
            probe: None,
            scatter_costs: Vec::new(),
        })
    }

    /// Send a line that must succeed, outside any measurement.
    pub fn expect_ok(&mut self, line: &str) -> Result<String, String> {
        self.client
            .expect_ok(line)
            .map_err(|e| format!("`{line}`: {e}"))
    }
}

impl Transport for WireClient<'_> {
    fn send(&mut self, line: &str) -> Result<Reply, String> {
        let (verb, class) = classify(line);
        let probed = match &mut self.probe {
            Some(probe) if class.scatter => Some(probe.read()?),
            _ => None,
        };
        let started = Instant::now();
        let reply = self.client.request(line);
        let ms = started.elapsed().as_secs_f64() * 1e3;
        let ok = matches!(reply, Ok(Ok(_)));
        self.attempted += 1;
        self.failed += u64::from(!ok);
        self.samples.push(Sample {
            verb,
            class,
            ms,
            ok,
        });
        let reply = reply.map_err(|e| format!("`{line}`: transport error: {e}"))?;
        if let (Some(before), Some(probe)) = (probed, &mut self.probe) {
            let after = probe.read()?;
            self.scatter_costs.push(ScatterCost {
                verb,
                stats: ServerStats::delta(&after, &before),
            });
        }
        if let Some(shadow) = &mut self.shadow {
            let mirrored = shadow.send(line)?;
            if mirrored != reply && self.shadow_divergence.is_none() {
                self.shadow_divergence = Some(format!(
                    "shadow replied\n{}\nlive replied\n{}",
                    entry(line, &mirrored),
                    entry(line, &reply)
                ));
            }
        }
        Ok(reply)
    }
}

/// What one client did in the timed phase.
#[derive(Debug)]
pub struct ClientRun {
    /// The first round; the gate compares it with the reference.
    pub first: Option<Round>,
    /// Rounds completed, each identical to the first.
    pub rounds: u64,
    /// Their wall times, s.
    pub round_s: Reservoir<f64>,
    /// Why the last round failed or differed from the first, if one did.
    pub failure: Option<String>,
}

impl Default for ClientRun {
    fn default() -> ClientRun {
        ClientRun {
            first: None,
            rounds: 0,
            round_s: Reservoir::new(ROUND_CAPACITY),
            failure: None,
        }
    }
}

/// Run rounds of `plan` back to back until `deadline` has passed (at
/// least one), each starting only after the previous one completed.
/// Keep the first; compare each later one with it as it finishes, and
/// stop at the first round that fails or differs.
pub fn drive(t: &mut WireClient, plan: &Plan, deadline: Instant, run: &mut ClientRun) {
    loop {
        let started = Instant::now();
        if started >= deadline && run.rounds > 0 {
            return;
        }
        let round = replay(plan, t);
        let secs = started.elapsed().as_secs_f64();
        let what = || format!("client {} round {}", plan.name(), run.rounds);
        match (round, &run.first) {
            (Err(e), _) => run.failure = Some(format!("{}: {e}", what())),
            (Ok(got), None) => run.first = Some(got),
            (Ok(got), Some(first)) => {
                run.failure = first_difference(&format!("{} against round 0", what()), &got, first)
            }
        }
        if run.failure.is_some() {
            return;
        }
        run.rounds += 1;
        run.round_s.push(secs);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reservoir_is_exact_until_full_then_keeps_its_size() {
        let mut r = Reservoir::new(4);
        for x in 0..3u32 {
            r.push(x);
        }
        assert_eq!(r.items(), &[0, 1, 2]);
        for x in 3..1000u32 {
            r.push(x);
        }
        assert_eq!(r.items().len(), 4);
        assert!(r.items().iter().any(|&x| x >= 4), "{:?}", r.items());
    }
}
