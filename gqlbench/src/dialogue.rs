//! What each closed-loop client says, one round at a time.
//!
//! A round is a short analyst dialogue: each command is chosen only after
//! the previous reply is read (which fascicle to contrast depends on the
//! `purity` answers, for instance). The same round functions drive the
//! live wire clients, the in-process reference replay and the traced
//! shadow, through the [`Transport`] trait, so every path speaks exactly
//! the same lines and the transcripts can be compared byte for byte.

use gea_server::wire::{self, Reply};

/// One way of answering a request line.
pub trait Transport {
    /// Send `line` and return the server's reply. `Err` is a transport
    /// failure (connection lost, malformed frame).
    fn send(&mut self, line: &str) -> Result<Reply, String>;
}

/// `reply` as a client receives it: rendered into a wire frame and
/// decoded again (a trailing newline, for one, does not survive).
pub fn framed(reply: Reply) -> Reply {
    let mut frame = Vec::new();
    let rendered = match &reply {
        Ok(payload) => wire::write_ok(&mut frame, payload),
        Err((code, message)) => wire::write_err(&mut frame, code, message),
    };
    match rendered.and_then(|()| wire::read_reply(&mut frame.as_slice())) {
        Ok(Some(decoded)) => decoded,
        _ => reply,
    }
}

/// The canonical transcript entry of one exchange.
pub fn entry(line: &str, reply: &Reply) -> String {
    match reply {
        Ok(payload) => format!("{line}\nOK\n{payload}"),
        Err((code, message)) => format!("{line}\nERR {code} {message}"),
    }
}

/// One round's record: the transcript and the mining output it saw.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct Round {
    /// One [`entry`] per request, in order.
    pub transcript: Vec<String>,
    /// Clusters yielded by each `mine` of the round, in order.
    pub clusters: Vec<usize>,
}

/// The first difference between a round and the round it must equal,
/// for the gate's report: the exchange, and both sides from a little before
/// the first byte that differs. `None` when they are identical.
pub fn first_difference(what: &str, got: &Round, want: &Round) -> Option<String> {
    let n = got.transcript.len().max(want.transcript.len());
    (0..n).find_map(|i| {
        let g = got.transcript.get(i).map_or("<missing>", |s| s.as_str());
        let w = want.transcript.get(i).map_or("<missing>", |s| s.as_str());
        (g != w).then(|| {
            let at = g.bytes().zip(w.bytes()).take_while(|(a, b)| a == b).count();
            let clip = |s: &str| -> String {
                let from = s.floor_char_boundary(at.saturating_sub(120));
                s[from..].chars().take(300).collect()
            };
            let request = g.lines().next().unwrap_or("");
            format!(
                "{what}: exchange {i} (`{request}`) differs at byte {at}\n--- got\n{}\n--- expected\n{}",
                clip(g),
                clip(w)
            )
        })
    })
}

/// A transport plus the round being recorded on it.
pub struct Conversation<'t> {
    transport: &'t mut dyn Transport,
    round: Round,
}

impl<'t> Conversation<'t> {
    /// Start recording a round on `transport`.
    pub fn new(transport: &'t mut dyn Transport) -> Conversation<'t> {
        Conversation {
            transport,
            round: Round::default(),
        }
    }

    /// Send a line that must succeed; returns the `OK` payload.
    pub fn say(&mut self, line: &str) -> Result<String, String> {
        let reply = self.transport.send(line)?;
        self.round.transcript.push(entry(line, &reply));
        reply.map_err(|(code, message)| format!("`{line}` answered ERR {code} {message}"))
    }

    /// Send a `mine` line; returns each cluster's name and library
    /// count. Fails the round on an empty result, so an empty-versus-empty
    /// comparison can never pass the gate.
    fn mine(&mut self, line: &str) -> Result<Vec<(String, usize)>, String> {
        let out = self.say(line)?;
        let found = clusters(&out);
        self.round.clusters.push(found.len());
        if found.is_empty() {
            return Err(format!("`{line}` mined no clusters"));
        }
        Ok(found)
    }

    /// Finish the round.
    pub fn finish(self) -> Round {
        self.round
    }
}

/// Clusters listed by a `mine` reply (`N fascicle(s):` or `N cluster(s)
/// via <algo>:`, then one `  <name>: <n> libraries, …` line each), as
/// (name, library count).
pub fn clusters(reply: &str) -> Vec<(String, usize)> {
    reply
        .lines()
        .skip(1)
        .filter_map(|l| {
            let (name, rest) = l.trim().split_once(": ")?;
            let libraries = rest.split_whitespace().next()?.parse().ok()?;
            Some((name.to_string(), libraries))
        })
        .collect()
}

/// The thesis §4.3 case study as one round, in its own name space.
#[derive(Debug, Clone)]
pub struct CaseStudy {
    /// Prefix of every table the round creates.
    pub ns: String,
    /// The command creating the round's data set `<ns>E`
    /// (`dataset …` or `custom …`).
    pub source: String,
    /// Fascicle compactness sweep, in k% of the data set's tags.
    pub sweep: Vec<usize>,
    /// Fascicles whose purity is checked at least, in the order mined.
    pub browse: usize,
    /// Cancerous libraries in the data set: the fascicle contrasted must
    /// leave one out, or the outside control group would be empty.
    pub cancer: usize,
    /// Also mine with the `isa` and `simplex` backends.
    pub backends: bool,
}

impl CaseStudy {
    /// The round's data set name.
    pub fn dataset(&self) -> String {
        format!("{}E", self.ns)
    }

    /// Run the case study up to (and including) the control groups and
    /// the first gap table; returns the chosen fascicle.
    pub fn prefix(&self, c: &mut Conversation) -> Result<String, String> {
        let (ns, ds) = (&self.ns, self.dataset());
        c.say(&self.source)?;
        // Check fascicles' purity in the order mined, as the analyst
        // reading Figure 4.7's list would: at least the first `browse`,
        // then on until one is pure cancer and leaves a cancerous library
        // outside. A fixed floor keeps the request mix the same from seed
        // to seed.
        let mut chosen = None;
        let mut browsed = 0;
        for k in &self.sweep {
            for (name, libraries) in c.mine(&format!("mine {ds} {ns}k{k} {k} 3 6"))? {
                if chosen.is_none() || browsed < self.browse {
                    browsed += 1;
                    let purity = c.say(&format!("purity {name}"))?;
                    if chosen.is_none()
                        && purity.contains("is pure: cancer")
                        && libraries < self.cancer
                    {
                        chosen = Some(name);
                    }
                }
            }
        }
        let f =
            chosen.ok_or_else(|| format!("no pure cancer fascicle in sweep {:?}", self.sweep))?;
        if self.backends {
            c.mine(&format!(
                "mine {ds} {ns}i with isa seeds=6 t_tags=0.8 t_libs=0.8"
            ))?;
            c.mine(&format!("mine {ds} {ns}s with simplex"))?;
        }
        c.say(&format!("groups {f}"))?;
        c.say(&format!("gap {ns}g1 {f}CancerFasTbl {f}NormalTable"))?;
        Ok(f)
    }

    /// One full round: the case study, then `delete --cascade` of the
    /// data set so the next round starts from the same state.
    pub fn round(&self, c: &mut Conversation) -> Result<(), String> {
        let ns = &self.ns;
        let ds = self.dataset();
        let f = self.prefix(c)?;
        // A gap table against each control group, the strongest gaps of
        // each, and cross-gap comparisons (thesis queries 1-3).
        c.say(&format!("gap {ns}g2 {f}CancerFasTbl {f}CanNotInFasTbl"))?;
        c.say(&format!("gap {ns}g3 {f}CanNotInFasTbl {f}NormalTable"))?;
        for g in ["g1", "g2", "g3"] {
            c.say(&format!("topgap {ns}{g} 5"))?;
        }
        c.say(&format!("compare {ns}cmp {ns}g1 {ns}g2 intersect 2"))?;
        c.say(&format!("compare {ns}cmp2 {ns}g1 {ns}g3 union 1"))?;
        c.say(&format!("compare {ns}cmp3 {ns}g2 {ns}g3 difference 3"))?;
        let shown = c.say(&format!("show gap {ns}g1 3"))?;
        let tag = first_tag(&shown).ok_or("`show gap` listed no tag")?;
        c.say(&format!("populate {ns}P {f} {ds}"))?;
        for (table, note) in [
            (f.clone(), "pure cancer fascicle"),
            (format!("{ns}g1"), "in-fascicle cancer vs normal"),
            (format!("{ns}g2"), "in-fascicle vs other cancer"),
            (format!("{ns}g3"), "other cancer vs normal"),
            (format!("{ns}cmp"), "lower in both contrasts"),
            (format!("{ns}P"), "extensional form of the fascicle"),
        ] {
            c.say(&format!("comment {table} \"{note}\""))?;
        }
        // Inspect the results before dropping them.
        for line in [
            format!("show gap {ns}g2 5"),
            format!("show sumy {f}CancerFasTbl 5"),
            format!("show sumy {f}NormalTable 5"),
            format!("tagfreq {ds} {tag}"),
            format!("plot {ds} {tag} {f}"),
            format!("purity {f}"),
        ] {
            c.say(&line)?;
        }
        c.say(&format!("delete {ds} --cascade"))?;
        Ok(())
    }
}

/// The interactive reader's panel of cacheable reads over the tables a
/// [`CaseStudy::prefix`] built during set-up: a few views polled over and
/// over, so a view is read again while the writer is between writes and
/// the response cache gets hits as well as invalidation misses.
#[derive(Debug, Clone)]
pub struct Panel {
    /// The requests, in order.
    pub lines: Vec<String>,
}

impl Panel {
    /// Build the panel over the set-up's data set, fascicle and gap
    /// table; `tag` is any tag of the data set.
    pub fn new(ds: &str, f: &str, gap: &str, tag: &str) -> Panel {
        Panel {
            lines: vec![
                format!("show sumy {f}CancerFasTbl 5"),
                format!("show gap {gap} 5"),
                format!("purity {f}"),
                format!("tagfreq {ds} {tag}"),
                format!("plot {ds} {tag} {f}"),
            ],
        }
    }

    /// One pass over the panel.
    pub fn round(&self, c: &mut Conversation) -> Result<(), String> {
        for line in &self.lines {
            c.say(line)?;
        }
        Ok(())
    }
}

/// The first tag of a `show gap <name> <n>` reply (a header, a rule,
/// then one row per tag).
pub fn first_tag(show_gap: &str) -> Option<String> {
    show_gap
        .lines()
        .nth(2)
        .and_then(|row| row.split_whitespace().next())
        .map(str::to_string)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clusters_read_both_mine_reply_shapes() {
        let fascicles = "2 fascicle(s):\n  f_1: 3 libraries, 959 compact tags\n  f_2: 4 libraries, 12 compact tags";
        let want = vec![("f_1".to_string(), 3), ("f_2".to_string(), 4)];
        assert_eq!(clusters(fascicles), want);
        let isa = "1 cluster(s) via isa:\n  i_1: 5 libraries, 804 compact tags";
        assert_eq!(clusters(isa), vec![("i_1".to_string(), 5)]);
        assert!(clusters("0 fascicle(s):").is_empty());
    }

    #[test]
    fn first_tag_skips_header_and_rule() {
        let reply = "TagName     TagNo  Gap \n----------  -----  ----\nAAAAAGCCCC  0      NULL";
        assert_eq!(first_tag(reply).as_deref(), Some("AAAAAGCCCC"));
        assert_eq!(first_tag("TagName\n---"), None);
    }
}
