//! The three workloads: their inputs, made from the seed, and the
//! clients that drive them.

use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::thread::JoinHandle;
use std::time::Duration;

use gea_router::{Router, RouterConfig, RouterHandle};
use gea_sage::generate::{generate, GeneratorConfig};
use gea_sage::library::{NeoplasticState, TissueType};
use gea_server::{Server, ServerConfig, ServerHandle};

use crate::dialogue::{first_tag, CaseStudy, Conversation, Panel, Round};

/// Worker threads for sharded kernels inside every session, fixed so the
/// shard counts repeat on any host.
pub const EXEC_THREADS: usize = 2;

/// The tissues `thesis-mine` analyses each round, one case study each:
/// three studies per round average out how much one tissue's mining
/// output varies from seed to seed. (Prostate is left out: on some seeds
/// its libraries yield no usable pure cancer fascicle.)
pub const THESIS_TISSUES: [TissueType; 3] =
    [TissueType::Brain, TissueType::Breast, TissueType::Colon];

/// Each thesis-mine data set holds a tissue's deepest cancerous and
/// deepest normal libraries, since libraries with few tags never cluster
/// (§4.3.1.2), and fixed numbers of each so every seed mines data sets of
/// the same shape; both control groups of a fascicle are then non-empty.
pub const DEEP_CANCER: usize = 7;
/// See [`DEEP_CANCER`].
pub const DEEP_NORMAL: usize = 3;

/// A `--max-cost` above every request's price: the pricing gate runs on
/// every request and rejects none.
pub const MAX_COST: u64 = 1 << 60;

/// Which traffic mix to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// One server, a reader and a writer sharing one demo-scale session.
    Interactive,
    /// One server, one client mining the 100-library thesis corpus.
    ThesisMine,
    /// One client through `gea-router` over two backends.
    Routed,
}

impl Workload {
    /// Every workload the binary runs (`BENCHMARK.json` gates all but
    /// `thesis-mine`).
    pub const ALL: [Workload; 3] = [
        Workload::Interactive,
        Workload::ThesisMine,
        Workload::Routed,
    ];

    /// Parse a `--workload` name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The workload's name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Interactive => "interactive",
            Workload::ThesisMine => "thesis-mine",
            Workload::Routed => "routed",
        }
    }

    /// Backend servers the workload runs.
    pub fn backends(self) -> usize {
        match self {
            Workload::Routed => 2,
            _ => 1,
        }
    }

    /// Whether clients talk to `gea-router` instead of a server.
    pub fn routed(self) -> bool {
        self == Workload::Routed
    }
}

/// Input size: `Full` is the benchmark, `Kick` a seconds-scale smoke
/// shape of the same dialogue (the thesis corpus is swapped for the demo
/// corpus).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The measured shape.
    Full,
    /// The smoke-test shape.
    Kick,
}

/// Everything generated from the seed.
#[derive(Debug, Clone)]
pub struct Inputs {
    /// Corpus directory; the only thing the servers are given.
    pub dir: PathBuf,
    /// Per [`THESIS_TISSUES`] entry, the thesis-mine data set.
    pub deep: Vec<DataSet>,
    /// Cancerous brain libraries, all of which `dataset … brain` selects.
    pub brain_cancer: usize,
}

/// A data set's libraries and how many of them are cancerous.
#[derive(Debug, Clone)]
pub struct DataSet {
    /// Library names.
    pub libraries: Vec<String>,
    /// Cancerous libraries among them.
    pub cancer: usize,
}

/// Generate the workload's corpus from `seed` and write it to `dir`.
/// Returns the inputs and the (generate, write) times in seconds.
pub fn generate_inputs(
    w: Workload,
    scale: Scale,
    seed: u64,
    dir: &Path,
) -> std::io::Result<(Inputs, f64, f64)> {
    let config = match (w, scale) {
        (Workload::ThesisMine, Scale::Full) => GeneratorConfig::thesis_scale(seed),
        _ => GeneratorConfig::demo(seed),
    };
    let started = std::time::Instant::now();
    let (corpus, _) = generate(&config);
    let generate_s = started.elapsed().as_secs_f64();
    let deepest = |tissue: &TissueType, state: NeoplasticState, n: usize| -> Vec<String> {
        let mut libs: Vec<(u64, String)> = corpus
            .iter()
            .filter(|(_, l)| l.meta.tissue == *tissue && l.meta.state == state)
            .map(|(_, l)| (l.total_tags(), l.meta.name.clone()))
            .collect();
        libs.sort_by(|a, b| b.0.cmp(&a.0).then_with(|| a.1.cmp(&b.1)));
        libs.into_iter().take(n).map(|(_, name)| name).collect()
    };
    let deep = THESIS_TISSUES
        .iter()
        .map(|tissue| {
            let mut libraries = deepest(tissue, NeoplasticState::Cancerous, DEEP_CANCER);
            let cancer = libraries.len();
            libraries.extend(deepest(tissue, NeoplasticState::Normal, DEEP_NORMAL));
            DataSet { libraries, cancer }
        })
        .collect();
    let brain_cancer = deepest(&TissueType::Brain, NeoplasticState::Cancerous, usize::MAX).len();
    let started = std::time::Instant::now();
    gea_sage::io::write_corpus_dir(&corpus, dir).map_err(std::io::Error::other)?;
    let write_s = started.elapsed().as_secs_f64();
    let dir = dir.canonicalize()?;
    Ok((
        Inputs {
            dir,
            deep,
            brain_cancer,
        },
        generate_s,
        write_s,
    ))
}

/// What one client replays each round.
#[derive(Debug, Clone)]
pub enum Plan {
    /// A fixed panel of cacheable reads.
    Reader(Panel),
    /// Case studies run one after the other, each in its own name space.
    Pipeline(Vec<CaseStudy>),
}

impl Plan {
    /// Run one round on `c`.
    pub fn round(&self, c: &mut Conversation) -> Result<(), String> {
        match self {
            Plan::Reader(panel) => panel.round(c),
            Plan::Pipeline(studies) => studies.iter().try_for_each(|study| study.round(c)),
        }
    }

    /// Whether the client runs an analysis pipeline (its round times are
    /// `pipeline_s` samples).
    pub fn is_pipeline(&self) -> bool {
        matches!(self, Plan::Pipeline(_))
    }

    /// The client's name in reports.
    pub fn name(&self) -> &'static str {
        match self {
            Plan::Reader(_) => "reader",
            Plan::Pipeline(_) => "pipeline",
        }
    }
}

/// The set-up dialogue run once on the opened session, before any
/// client starts; returns the clients' plans. The live set-up and the
/// reference replay both run it, so their transcripts can be compared.
pub fn prep(
    w: Workload,
    scale: Scale,
    inputs: &Inputs,
    c: &mut Conversation,
) -> Result<Vec<Plan>, String> {
    // On every seed tried, k% = 45 on the demo brain libraries yields a
    // pure cancer fascicle among three to eight, and the thesis sweep at
    // least eight fascicles per tissue, one of them pure cancer.
    let demo_sweep = vec![45];
    match w {
        Workload::Interactive => {
            let tables = CaseStudy {
                ns: "s".to_string(),
                source: "dataset sE brain".to_string(),
                sweep: demo_sweep.clone(),
                browse: DEMO_BROWSE,
                cancer: inputs.brain_cancer,
                backends: false,
            };
            let f = tables.prefix(c)?;
            let shown = c.say("show gap sg1 1")?;
            let tag = first_tag(&shown).ok_or("`show gap sg1 1` listed no tag")?;
            let writer = CaseStudy {
                ns: "w".to_string(),
                source: "dataset wE brain".to_string(),
                sweep: demo_sweep,
                browse: DEMO_BROWSE,
                cancer: inputs.brain_cancer,
                backends: false,
            };
            Ok(vec![
                Plan::Reader(Panel::new(&tables.dataset(), &f, "sg1", &tag)),
                Plan::Pipeline(vec![writer]),
            ])
        }
        Workload::ThesisMine => {
            // The demo corpus of the kick-tires size has one tissue deep
            // enough to cluster.
            let tissues = if scale == Scale::Full {
                THESIS_TISSUES.len()
            } else {
                1
            };
            let studies = inputs.deep[..tissues]
                .iter()
                .enumerate()
                .map(|(i, set)| CaseStudy {
                    ns: format!("t{i}"),
                    source: format!("custom t{i}E {}", set.libraries.join(" ")),
                    cancer: set.cancer,
                    sweep: match scale {
                        Scale::Full => vec![85, 80, 75, 70, 65],
                        Scale::Kick => demo_sweep.clone(),
                    },
                    browse: match scale {
                        Scale::Full => 8,
                        Scale::Kick => DEMO_BROWSE,
                    },
                    backends: true,
                })
                .collect();
            Ok(vec![Plan::Pipeline(studies)])
        }
        Workload::Routed => Ok(vec![Plan::Pipeline(vec![CaseStudy {
            ns: "r".to_string(),
            source: "dataset rE brain".to_string(),
            sweep: demo_sweep,
            browse: DEMO_BROWSE,
            cancer: inputs.brain_cancer,
            backends: true,
        }])]),
    }
}

/// Fascicles whose purity a demo-scale study checks at least.
const DEMO_BROWSE: usize = 3;

/// The `open` line for the corpus directory.
pub fn open_line(session: &str, dir: &Path) -> String {
    let dir = dir.display().to_string();
    if dir.contains(char::is_whitespace) {
        format!("open {session} dir \"{dir}\"")
    } else {
        format!("open {session} dir {dir}")
    }
}

/// In-process servers, and the router in front of them if the workload
/// is routed.
pub struct Fixture {
    servers: Vec<(SocketAddr, ServerHandle, JoinHandle<()>)>,
    router: Option<(SocketAddr, RouterHandle, JoinHandle<()>)>,
}

impl Fixture {
    /// Bind `backends` servers on loopback ephemeral ports, and a router
    /// over them if `routed`.
    pub fn spawn(backends: usize, routed: bool) -> std::io::Result<Fixture> {
        let mut servers = Vec::new();
        for _ in 0..backends {
            let server = Server::bind(ServerConfig {
                addr: "127.0.0.1:0".to_string(),
                threads: EXEC_THREADS,
                max_cost: Some(MAX_COST),
                lock_timeout: Duration::from_secs(60),
                ..ServerConfig::default()
            })?;
            let addr = server.local_addr();
            let handle = server.handle();
            let join = std::thread::spawn(move || {
                let _ = server.run();
            });
            servers.push((addr, handle, join));
        }
        let router = if routed {
            let router = Router::bind(RouterConfig {
                addr: "127.0.0.1:0".to_string(),
                backends: servers.iter().map(|(a, _, _)| a.to_string()).collect(),
                ..RouterConfig::default()
            })?;
            let addr = router.local_addr();
            let handle = router.handle();
            let join = std::thread::spawn(move || {
                let _ = router.run();
            });
            Some((addr, handle, join))
        } else {
            None
        };
        Ok(Fixture { servers, router })
    }

    /// The address clients talk to.
    pub fn front(&self) -> SocketAddr {
        match &self.router {
            Some((addr, _, _)) => *addr,
            None => self.servers[0].0,
        }
    }

    /// The backend servers' addresses, in shard order.
    pub fn backends(&self) -> Vec<SocketAddr> {
        self.servers.iter().map(|(a, _, _)| *a).collect()
    }

    /// Stop the router, then every server, and wait for their threads.
    pub fn shutdown(self) {
        if let Some((_, handle, join)) = self.router {
            handle.shutdown();
            let _ = join.join();
        }
        for (_, handle, join) in self.servers {
            handle.shutdown();
            let _ = join.join();
        }
    }
}

/// Run one round of `plan` on `t`.
pub fn replay(plan: &Plan, t: &mut dyn crate::dialogue::Transport) -> Result<Round, String> {
    let mut c = Conversation::new(t);
    plan.round(&mut c)?;
    Ok(c.finish())
}
