//! The traced run's spans, and the shadow that records them.
//!
//! The server's request path cannot be instrumented from outside, so the
//! traced run replays every request a client sends through a *shadow*:
//! the same public layer calls `gea-server`'s request loop makes (parse,
//! optimizer, response cache, lock gate, cost gate, engine or optimizer
//! executor, reply render), in the same order, against a session opened
//! from the same corpus directory, with a span around each call. The
//! shadow's reply must equal the live one byte for byte, so the spans
//! time the very work a single server does for it.
//!
//! Behind `gea-router` that holds for reads (the home backend serves
//! them on this path) and for broadcast writes (every backend runs
//! them on this path), but not for scattered requests: the backends
//! compute shards (`xpart`) and install the router's merge (`xapply`)
//! instead. Their spans are marked [`Span::scatter`] so a routed run's
//! figures can leave them out.

use std::path::Path;
use std::time::{Duration, Instant};

use gea_check::{cost_pipeline, CostModel, CostSeed};
use gea_core::persist;
use gea_core::session::{ExecConfig, GeaSession};
use gea_sage::clean::CleaningConfig;
use gea_server::cache::CacheScope;
use gea_server::gql::{self, GqlCommand, Request};
use gea_server::registry::SessionEntry;
use gea_server::wire::{self, Reply};
use gea_server::{engine, optexec, EffectTable, EngineError, ResponseCache, SessionRegistry};

use crate::dialogue::Transport;
use crate::workload::{EXEC_THREADS, MAX_COST};

/// One timed interval at a layer boundary.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer call (`check.parse`, `engine.write`, …).
    pub name: &'static str,
    /// The command verb the span served (`""` outside a request).
    pub verb: &'static str,
    /// Request id, shared by every span of one request (0: set-up).
    pub req: u64,
    /// Index of the enclosing span in the same log.
    pub parent: Option<usize>,
    /// Start, in ns since the log's epoch.
    pub start_ns: u64,
    /// Duration in ns.
    pub dur_ns: u64,
    /// The request is one `gea-router` scatters over its backends.
    pub scatter: bool,
}

/// One thread's spans, kept in memory until the run ends.
#[derive(Debug)]
pub struct SpanLog {
    epoch: Instant,
    /// Recorded spans, in start order.
    pub spans: Vec<Span>,
}

impl SpanLog {
    /// An empty log timing from `epoch`.
    pub fn new(epoch: Instant) -> SpanLog {
        SpanLog {
            epoch,
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span; close it with [`SpanLog::end`].
    pub fn begin(
        &mut self,
        name: &'static str,
        verb: &'static str,
        req: u64,
        parent: Option<usize>,
    ) -> usize {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            verb,
            req,
            parent,
            start_ns,
            dur_ns: 0,
            scatter: false,
        });
        self.spans.len() - 1
    }

    /// Close span `idx`.
    pub fn end(&mut self, idx: usize) {
        let now = self.now_ns();
        let span = &mut self.spans[idx];
        span.dur_ns = now.saturating_sub(span.start_ns);
    }

    /// Time `f` as a span.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        verb: &'static str,
        req: u64,
        parent: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> T {
        let idx = self.begin(name, verb, req, parent);
        let out = f();
        self.end(idx);
        out
    }

    /// Record a child whose duration was measured inside the program
    /// (a `gea-exec` parallel section reported by the session).
    pub fn child(&mut self, name: &'static str, verb: &'static str, parent: usize, dur: Duration) {
        let p = &self.spans[parent];
        let (req, start_ns, scatter) = (p.req, p.start_ns, p.scatter);
        self.spans.push(Span {
            name,
            verb,
            req,
            parent: Some(parent),
            start_ns,
            dur_ns: dur.as_nanos() as u64,
            scatter,
        });
    }

    /// Each span's self time: its duration minus its direct children's.
    pub fn self_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(|s| s.dur_ns).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] = own[p].saturating_sub(s.dur_ns);
            }
        }
        own
    }
}

/// The shadow server: a registry and a response cache shared by every
/// shadow client, as the server shares them across connections.
pub struct Shadow {
    registry: SessionRegistry,
    cache: ResponseCache,
    model: CostModel,
}

impl Default for Shadow {
    fn default() -> Shadow {
        Shadow::new()
    }
}

impl Shadow {
    /// An empty shadow with the server's default cache budget.
    pub fn new() -> Shadow {
        Shadow {
            registry: SessionRegistry::new(),
            cache: ResponseCache::new(gea_server::ServerConfig::default().cache_bytes),
            model: CostModel::default_coefficients(),
        }
    }

    /// Open `name` from the corpus directory as `open <name> dir` does,
    /// with `sage.read_dir` and `sage.clean` spans.
    pub fn open(&self, name: &str, dir: &Path, log: &mut SpanLog) -> Result<(), String> {
        let corpus = log
            .time("sage.read_dir", "open", 0, None, || {
                gea_sage::io::read_corpus_dir(dir)
            })
            .map_err(|e| e.to_string())?;
        let mut session = log
            .time("sage.clean", "open", 0, None, || {
                GeaSession::open(corpus, &CleaningConfig::default())
            })
            .map_err(|e| e.to_string())?;
        session.set_exec_config(ExecConfig::with_threads(EXEC_THREADS));
        let fingerprint = persist::corpus_fingerprint(&session).ok();
        self.registry
            .open_with_fingerprint(name, session, fingerprint);
        Ok(())
    }
}

/// One client's view of the shadow, attached to a session.
pub struct ShadowClient<'s> {
    shadow: &'s Shadow,
    session: String,
    next_req: u64,
    /// The client's spans.
    pub log: SpanLog,
}

impl<'s> ShadowClient<'s> {
    /// A client of `shadow` attached to `session`; request ids start at
    /// `first_req` so ids stay unique across clients.
    pub fn new(shadow: &'s Shadow, session: &str, epoch: Instant, first_req: u64) -> Self {
        ShadowClient {
            shadow,
            session: session.to_string(),
            next_req: first_req,
            log: SpanLog::new(epoch),
        }
    }

    fn answer(&mut self, line: &str) -> Reply {
        self.next_req += 1;
        let req = self.next_req;
        let root = self.log.begin("request", "", req, None);
        let parsed = self
            .log
            .time("check.parse", "", req, Some(root), || gql::parse(line));
        let mut scatter = false;
        let (verb, result) = match parsed {
            Ok(Some(Request::Gql(cmd))) => {
                let verb = cmd.verb();
                self.log.spans[root].verb = verb;
                scatter = EffectTable::of(&cmd).scatterable;
                (verb, self.run_gql(&cmd, verb, req, root))
            }
            Ok(_) => (
                "",
                Err(EngineError::new(
                    "EBENCH",
                    "the shadow serves GQL commands only",
                )),
            ),
            Err(e) => ("parse", Err(EngineError::new("EPARSE", e.0))),
        };
        let mut frame = Vec::new();
        let rendered = self
            .log
            .time("wire.render", verb, req, Some(root), || match &result {
                Ok(payload) => wire::write_ok(&mut frame, payload),
                Err(e) => wire::write_err(&mut frame, e.code, &e.message),
            });
        self.log.end(root);
        for span in &mut self.log.spans[root..] {
            span.scatter = scatter;
        }
        let decoded = rendered.and_then(|()| wire::read_reply(&mut frame.as_slice()));
        match decoded {
            Ok(Some(reply)) => reply,
            _ => Err((
                "EBENCH".to_string(),
                "shadow reply did not frame".to_string(),
            )),
        }
    }

    /// The server's `run_gql`, call for call, each call a span.
    fn run_gql(
        &mut self,
        cmd: &GqlCommand,
        verb: &'static str,
        req: u64,
        root: usize,
    ) -> Result<String, EngineError> {
        let shadow = self.shadow;
        let log = &mut self.log;
        let entry = shadow
            .registry
            .get(&self.session)
            .ok_or_else(|| EngineError::new("ENOSESSION", "shadow session missing"))?;
        let timeout = Duration::from_secs(60);
        if cmd.is_read() {
            let key = cmd
                .is_cacheable()
                .then(|| log.time("opt.key", verb, req, Some(root), || gea_opt::cache_key(cmd)));
            if let Some(key) = &key {
                let generation = entry.generation();
                let hit = log.time("cache.get", verb, req, Some(root), || {
                    shadow.cache.get(scope(&entry, generation), generation, key)
                });
                if let Some(reply) = hit {
                    return Ok(reply);
                }
            }
            let session = log.time("registry.lock_wait", verb, req, Some(root), || {
                entry.read_with_deadline(timeout)
            })?;
            log.time("check.cost", verb, req, Some(root), || {
                price(&shadow.model, &session, cmd)
            })?;
            let generation = entry.generation();
            let result = log.time("engine.read", verb, req, Some(root), || {
                engine::execute_read(&session, cmd)
            });
            log.time("registry.release", verb, req, Some(root), || drop(session));
            if let (Some(key), Ok(reply)) = (key, &result) {
                log.time("cache.insert", verb, req, Some(root), || {
                    shadow
                        .cache
                        .insert(scope(&entry, generation), generation, key, reply.clone())
                });
            }
            result
        } else {
            let rewritten = log.time("opt.rewrite", verb, req, Some(root), || {
                gea_opt::rewrite_command(0, cmd)
            });
            let mut session = log.time("registry.lock_wait", verb, req, Some(root), || {
                entry.write_with_deadline(timeout)
            })?;
            log.time("check.cost", verb, req, Some(root), || {
                price(&shadow.model, &session, cmd)
            })?;
            let engine_span = log.begin("engine.write", verb, req, Some(root));
            let result = match &rewritten {
                Some((step, _)) => optexec::run_rewritten(&mut session, step),
                None => engine::execute_write(&mut session, cmd),
            };
            log.end(engine_span);
            let events = session.drain_exec_events();
            // Releasing a write guard re-estimates the session's size.
            log.time("registry.release", verb, req, Some(root), || drop(session));
            for ev in events {
                log.child("exec", verb, engine_span, Duration::from_micros(ev.wall_us));
            }
            result
        }
    }
}

impl Transport for ShadowClient<'_> {
    fn send(&mut self, line: &str) -> Result<Reply, String> {
        Ok(self.answer(line))
    }
}

/// The server's cache namespace rule: pristine sessions share slots by
/// corpus fingerprint, anything else stays private to its entry.
fn scope(entry: &SessionEntry, generation: u64) -> CacheScope {
    match entry.corpus_fingerprint() {
        Some(fp) if generation == 0 => CacheScope::Corpus(fp),
        _ => CacheScope::Entry(entry.id()),
    }
}

/// The `--max-cost` gate's pricing against the live session.
fn price(model: &CostModel, session: &GeaSession, cmd: &GqlCommand) -> Result<(), EngineError> {
    let seed = CostSeed::from_session(session);
    let report = cost_pipeline(model, &seed, std::slice::from_ref(cmd));
    if report.total > MAX_COST {
        return Err(EngineError::new("EBUDGET", "over the benchmark's cost cap"));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let mut log = SpanLog::new(Instant::now());
        log.spans = vec![
            Span {
                name: "request",
                verb: "",
                req: 1,
                parent: None,
                start_ns: 0,
                dur_ns: 100,
                scatter: false,
            },
            Span {
                name: "engine.write",
                verb: "mine",
                req: 1,
                parent: Some(0),
                start_ns: 5,
                dur_ns: 60,
                scatter: false,
            },
            Span {
                name: "exec",
                verb: "mine",
                req: 1,
                parent: Some(1),
                start_ns: 5,
                dur_ns: 50,
                scatter: false,
            },
            Span {
                name: "wire.render",
                verb: "mine",
                req: 1,
                parent: Some(0),
                start_ns: 70,
                dur_ns: 10,
                scatter: false,
            },
        ];
        assert_eq!(log.self_ns(), vec![30, 10, 50, 10]);
    }
}
