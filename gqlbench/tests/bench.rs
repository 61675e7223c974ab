//! The benchmark's own tests: a kick-tires run of every workload, both
//! untraced and traced, checked against `BENCHMARK.json`. (The gate
//! tripping on a corrupted reference is a unit test in `src/lib.rs`.)
//!
//! `cargo test --release --manifest-path gqlbench/Cargo.toml`

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::Command;

use gqlbench::workload::Workload;

/// A seed no tuning run used.
const HELD_OUT_SEED: &str = "2026";

/// A parsed JSON value (only what these tests read).
#[derive(Debug, Clone, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(BTreeMap<String, Json>),
}

impl Json {
    fn parse(text: &str) -> Json {
        let mut p = Parser {
            s: text.as_bytes(),
            i: 0,
        };
        let v = p.value();
        p.ws();
        assert_eq!(p.i, p.s.len(), "trailing bytes after JSON value");
        v
    }

    fn get(&self, key: &str) -> &Json {
        match self {
            Json::Obj(m) => m.get(key).unwrap_or_else(|| panic!("no key {key}")),
            other => panic!("not an object: {other:?}"),
        }
    }

    fn str(&self) -> &str {
        match self {
            Json::Str(s) => s,
            other => panic!("not a string: {other:?}"),
        }
    }

    fn arr(&self) -> &[Json] {
        match self {
            Json::Arr(a) => a,
            other => panic!("not an array: {other:?}"),
        }
    }

    fn obj(&self) -> &BTreeMap<String, Json> {
        match self {
            Json::Obj(m) => m,
            other => panic!("not an object: {other:?}"),
        }
    }
}

struct Parser<'a> {
    s: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn ws(&mut self) {
        while self.i < self.s.len() && self.s[self.i].is_ascii_whitespace() {
            self.i += 1;
        }
    }

    fn eat(&mut self, b: u8) {
        self.ws();
        assert_eq!(
            self.s.get(self.i),
            Some(&b),
            "expected {:?} at {}",
            b as char,
            self.i
        );
        self.i += 1;
    }

    fn value(&mut self) -> Json {
        self.ws();
        match self.s[self.i] {
            b'{' => {
                self.i += 1;
                let mut m = BTreeMap::new();
                self.ws();
                if self.s[self.i] == b'}' {
                    self.i += 1;
                    return Json::Obj(m);
                }
                loop {
                    self.ws();
                    let Json::Str(k) = self.value() else {
                        panic!("object key")
                    };
                    self.eat(b':');
                    let v = self.value();
                    assert!(m.insert(k.clone(), v).is_none(), "duplicate key {k}");
                    self.ws();
                    self.i += 1;
                    if self.s[self.i - 1] == b'}' {
                        return Json::Obj(m);
                    }
                }
            }
            b'[' => {
                self.i += 1;
                let mut a = Vec::new();
                self.ws();
                if self.s[self.i] == b']' {
                    self.i += 1;
                    return Json::Arr(a);
                }
                loop {
                    a.push(self.value());
                    self.ws();
                    self.i += 1;
                    if self.s[self.i - 1] == b']' {
                        return Json::Arr(a);
                    }
                }
            }
            b'"' => {
                self.i += 1;
                let start = self.i;
                while self.s[self.i] != b'"' {
                    assert_ne!(self.s[self.i], b'\\', "escapes are not used here");
                    self.i += 1;
                }
                self.i += 1;
                Json::Str(String::from_utf8(self.s[start..self.i - 1].to_vec()).unwrap())
            }
            b't' => {
                self.i += 4;
                Json::Bool(true)
            }
            b'f' => {
                self.i += 5;
                Json::Bool(false)
            }
            b'n' => {
                self.i += 4;
                Json::Null
            }
            _ => {
                let start = self.i;
                while self.i < self.s.len() && b"+-0123456789.eE".contains(&self.s[self.i]) {
                    self.i += 1;
                }
                let text = std::str::from_utf8(&self.s[start..self.i]).unwrap();
                Json::Num(text.parse().unwrap_or_else(|_| panic!("bad number {text}")))
            }
        }
    }
}

fn benchmark_json() -> Json {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    Json::parse(&std::fs::read_to_string(path).expect("read BENCHMARK.json"))
}

/// Run the benchmark binary; returns (exit code, stdout, stderr).
fn bench(args: &[&str], tag: &str) -> (i32, String, String) {
    let work = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("gqlbench-{tag}"));
    let out = Command::new(env!("CARGO_BIN_EXE_gqlbench"))
        .args(args)
        .arg("--work-dir")
        .arg(&work)
        .output()
        .expect("spawn gqlbench");
    (
        out.status.code().unwrap_or(-1),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

/// Kick-tires run of `workload`; checks the result line carries exactly
/// the metrics `BENCHMARK.json` lists for that mode, each with its unit.
fn kick_tires(workload: &str) {
    let spec = benchmark_json();
    for (trace, list) in [("0", "end_to_end"), ("1", "per_layer")] {
        let tag = format!("{workload}-{trace}");
        let args = [
            "--workload",
            workload,
            "--seed",
            HELD_OUT_SEED,
            "--seconds",
            "0.5",
            "--trace",
            trace,
            "--scale",
            "kick",
        ];
        let (code, stdout, stderr) = bench(&args, &tag);
        assert_eq!(code, 0, "{tag} failed:\n{stderr}\n{stdout}");
        assert!(
            stdout.contains(&format!("seed={HELD_OUT_SEED}")),
            "{stdout}"
        );
        let result = Json::parse(stdout.lines().last().expect("a result line"));
        assert_eq!(result.obj().len(), 4, "{result:?}");
        assert_eq!(result.get("correct"), &Json::Bool(true));
        assert_eq!(result.get("failed"), &Json::Num(0.0));
        assert!(matches!(result.get("attempted"), Json::Num(n) if *n >= 1.0));
        let printed = result.get("metrics").obj();
        let listed = spec.get(list).arr();
        assert_eq!(printed.len(), listed.len(), "{tag}: {printed:?}");
        for metric in listed {
            let name = metric.get("name").str();
            let got = printed
                .get(name)
                .unwrap_or_else(|| panic!("{tag}: {name} not printed"));
            assert_eq!(
                got.get("unit").str(),
                metric.get("unit").str(),
                "{tag}: {name}"
            );
            assert!(
                matches!(got.get("value"), Json::Num(v) if v.is_finite()),
                "{tag}: {name}"
            );
        }
    }
}

#[test]
fn benchmark_json_names_the_gated_workloads() {
    let spec = benchmark_json();
    let names: Vec<&str> = spec
        .get("workloads")
        .arr()
        .iter()
        .map(|w| w.get("name").str())
        .collect();
    // `thesis-mine` runs but is not gated: see README.md.
    assert_eq!(names, ["interactive", "routed"]);
    assert!(names.iter().all(|n| Workload::parse(n).is_some()));
    let command: Vec<&str> = spec.get("command").arr().iter().map(Json::str).collect();
    assert!(command.contains(&"gqlbench/Cargo.toml"), "{command:?}");
}

#[test]
fn kick_tires_interactive() {
    kick_tires("interactive");
}

#[test]
fn kick_tires_thesis_mine() {
    kick_tires("thesis-mine");
}

#[test]
fn kick_tires_routed() {
    kick_tires("routed");
}

#[test]
fn bad_usage_exits_2() {
    let (code, stdout, _) = bench(&["--workload", "nope"], "usage");
    assert_eq!(code, 2);
    assert!(stdout.is_empty());
}
