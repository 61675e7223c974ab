//! Order statistics over samples, and the server's `stats` reply.

use std::collections::BTreeMap;

/// Nearest-rank quantile of `values` (`q` in `[0, 1]`); `None` when
/// empty. Infinite values (failed requests) sort above every sample.
pub fn quantile(values: &[f64], q: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    Some(sorted[rank - 1])
}

/// The median (the mean of the two middle values for an even count),
/// `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    Some(if sorted.len().is_multiple_of(2) {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    } else {
        sorted[mid]
    })
}

/// One server's `stats` reply: its counters, per verb the request count
/// and summed server-side time, and per operation its `gea-exec`
/// parallel sections.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ServerStats {
    /// `name value` gauge and counter lines.
    pub counters: BTreeMap<String, u64>,
    /// `cmd <verb> count N … mean_us M …` lines as `(N, N·M µs)`.
    pub verbs: BTreeMap<String, (u64, u64)>,
    /// `exec <op> count N shards S wall_us W cpu_us C` lines as
    /// `[N, S, W, C]`.
    pub exec: BTreeMap<String, [u64; 4]>,
}

impl ServerStats {
    /// Parse a `stats` reply.
    pub fn parse(text: &str) -> ServerStats {
        let mut stats = ServerStats::default();
        for line in text.lines() {
            let tokens: Vec<&str> = line.split_whitespace().collect();
            let field = |rest: &[&str], key: &str| -> u64 {
                rest.windows(2)
                    .find(|kv| kv[0] == key)
                    .and_then(|kv| kv[1].parse().ok())
                    .unwrap_or(0)
            };
            match tokens.as_slice() {
                [name, value] => {
                    if let Ok(v) = value.parse() {
                        stats.counters.insert(name.to_string(), v);
                    }
                }
                ["cmd", verb, rest @ ..] => {
                    let count = field(rest, "count");
                    stats
                        .verbs
                        .insert(verb.to_string(), (count, count * field(rest, "mean_us")));
                }
                ["exec", op, rest @ ..] => {
                    let keys = ["count", "shards", "wall_us", "cpu_us"];
                    stats
                        .exec
                        .insert(op.to_string(), keys.map(|k| field(rest, k)));
                }
                _ => {}
            }
        }
        stats
    }

    /// What happened between `before` and `self`.
    pub fn since(&self, before: &ServerStats) -> ServerStats {
        let counters = self
            .counters
            .iter()
            .map(|(k, v)| {
                let was = before.counters.get(k).copied().unwrap_or(0);
                (k.clone(), v.saturating_sub(was))
            })
            .collect();
        let verbs = self
            .verbs
            .iter()
            .map(|(k, &(n, us))| {
                let (n0, us0) = before.verbs.get(k).copied().unwrap_or((0, 0));
                (k.clone(), (n.saturating_sub(n0), us.saturating_sub(us0)))
            })
            .collect();
        let exec = self
            .exec
            .iter()
            .map(|(k, now)| {
                let was = before.exec.get(k).copied().unwrap_or_default();
                (
                    k.clone(),
                    std::array::from_fn(|i| now[i].saturating_sub(was[i])),
                )
            })
            .collect();
        ServerStats {
            counters,
            verbs,
            exec,
        }
    }

    /// What happened on several servers (`after[i]` and `before[i]` read
    /// from the same one), added together.
    pub fn delta(after: &[ServerStats], before: &[ServerStats]) -> ServerStats {
        let deltas: Vec<ServerStats> = after.iter().zip(before).map(|(a, b)| a.since(b)).collect();
        ServerStats::sum(&deltas)
    }

    /// Several servers' stats added together.
    pub fn sum(all: &[ServerStats]) -> ServerStats {
        let mut total = ServerStats::default();
        for s in all {
            for (k, v) in &s.counters {
                *total.counters.entry(k.clone()).or_default() += v;
            }
            for (k, (n, us)) in &s.verbs {
                let slot = total.verbs.entry(k.clone()).or_default();
                slot.0 += n;
                slot.1 += us;
            }
            for (k, v) in &s.exec {
                let slot = total.exec.entry(k.clone()).or_default();
                for (t, x) in slot.iter_mut().zip(v) {
                    *t += x;
                }
            }
        }
        total
    }

    /// A counter's value, 0 when absent.
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Requests and summed server-side µs of every backend verb
    /// (`xpart`, `xstage`, `xapply`, …).
    pub fn xverbs(&self) -> (u64, u64) {
        self.verbs
            .iter()
            .filter(|(verb, _)| verb.starts_with('x') && verb.as_str() != "xprofiler")
            .fold((0, 0), |(n, us), (_, &(vn, vus))| (n + vn, us + vus))
    }

    /// Every operation's parallel sections together: `[count, shards,
    /// wall_us, cpu_us]`.
    pub fn exec_total(&self) -> [u64; 4] {
        self.exec.values().fold([0; 4], |mut t, v| {
            for (t, x) in t.iter_mut().zip(v) {
                *t += x;
            }
            t
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_use_nearest_rank_and_sort_failures_last() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&v, 0.5), Some(2.0));
        assert_eq!(quantile(&v, 0.95), Some(4.0));
        assert_eq!(median(&v), Some(2.5));
        assert_eq!(quantile(&[1.0, f64::INFINITY], 0.95), Some(f64::INFINITY));
        assert_eq!(quantile(&[], 0.5), None);
    }

    #[test]
    fn stats_parse_and_difference() {
        let before = ServerStats::parse(
            "cache_hits 2\nopt_rewrites 1\ncmd xpart count 2 errors 0 mean_us 10 p50_us 16\n",
        );
        let after = ServerStats::parse(
            "cache_hits 7\nopt_rewrites 1\nexec mine count 2 shards 4 wall_us 50 cpu_us 90\ncmd xpart count 4 errors 0 mean_us 20 p50_us 32\ncmd show count 3 errors 0 mean_us 5\ncmd xprofiler count 9 errors 0 mean_us 1\n",
        );
        let d = after.since(&before);
        assert_eq!(d.counter("cache_hits"), 5);
        assert_eq!(d.counter("opt_rewrites"), 0);
        assert_eq!(d.verbs["xpart"], (2, 60));
        assert_eq!(d.verbs["show"], (3, 15));
        assert_eq!(d.xverbs(), (2, 60));
        assert_eq!(d.exec["mine"], [2, 4, 50, 90]);
        let both = ServerStats::delta(&[after.clone(), after], &[before.clone(), before]);
        assert_eq!(both.verbs["show"], (6, 30));
        assert_eq!(both.exec_total(), [4, 8, 100, 180]);
    }
}
