//! What the benchmark measures: the metric registry, the three workload
//! definitions, and the reader for `BENCHMARK.json` (the repository's
//! benchmark contract, which also carries each workload's frozen arrival
//! rate and declared decision labels in a `[key=value …]` tag at the end
//! of its `why` line).

use std::collections::BTreeMap;
use std::path::Path;

/// End-to-end metrics, reported by an untraced run: `(name, unit)`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("first_table_p50_ms", "ms"),
    ("events_per_busy_s", "events/s"),
    ("cpu_us_per_event", "us"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, reported by a traced run: `(name, unit)`. Metrics of
/// a layer a workload does not exercise read zero.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("scheduler.ticks", "count"),
    ("scheduler.batch_mean", "events"),
    ("scheduler.events_deferred", "count"),
    ("scheduler.backlog_max", "events"),
    ("scheduler.tick_p50_ms", "ms"),
    ("scheduler.tick_p99_ms", "ms"),
    ("register.count", "count"),
    ("register.p50_us", "us"),
    ("table_cache.l1_hit_rate", "ratio"),
    ("table_cache.l2_hit_rate", "ratio"),
    ("table_cache.l1_evictions", "count"),
    ("table_cache.l2_bytes", "bytes"),
    ("shard.handoffs", "count"),
    ("shard.lane_events_max_over_mean", "ratio"),
    ("exec.parallel_efficiency", "ratio"),
    ("eis.fresh_hit_rate", "ratio"),
    ("eis.forecast_misses", "count"),
    ("eis.shared_hit_rate", "ratio"),
    ("eis.eval_us", "us"),
    ("retrieval.us", "us"),
    ("retrieval.pool_mean", "chargers"),
    ("detour.us", "us"),
    ("detour.backend", "label"),
    ("detour.ch_build_s", "s"),
    ("prune.auto_on", "label"),
    ("prune.threshold", "chargers"),
    ("prune.pool", "count"),
    ("prune.exact_eval_share", "ratio"),
    ("solve.cold_us", "us"),
    ("solve.self_us", "us"),
    ("solve.adapted_share", "ratio"),
    ("score.us", "us"),
    ("journal.records", "count"),
    ("journal.bytes_per_event", "bytes"),
    ("journal.append_us", "us"),
    ("snapshot.count", "count"),
    ("snapshot.bytes", "bytes"),
    ("snapshot.tick_ms", "ms"),
    ("recovery.read_ms", "ms"),
    ("recovery.events_replayed", "count"),
    ("recovery.snapshot_bytes_loaded", "bytes"),
    ("recover_s", "s"),
    ("disk_mb", "MB"),
    ("setup.calibration_s", "s"),
    ("setup.world_s", "s"),
    ("setup.front_s", "s"),
    ("generator.late_p50_ms", "ms"),
    ("generator.late_p99_ms", "ms"),
    ("failed_share", "ratio"),
    ("trace.spans", "count"),
    ("trace.overhead_pct", "%"),
];

/// `detour.backend` label codes.
pub const BACKEND_LABELS: &[&str] = &["dijkstra", "ch", "mixed"];

/// One workload: the world it builds and the serving front it drives.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    /// Chargers in the synthetic fleet.
    pub chargers: usize,
    /// Zipf skew of the route-shape draw; `None` gives every client its
    /// own route.
    pub zipf: Option<f64>,
    /// Departure window, seconds from 07:00 on a Tuesday.
    pub window_secs: u64,
    /// Preferred straight-line trip length band, metres.
    pub trip_m: (f64, f64),
    /// Serve through a 2-shard × 2-thread sharded front with the table
    /// cache on, instead of one flat single-thread service.
    pub sharded: bool,
    /// Journal every transition and crash/recover at seeded points.
    pub durable: bool,
}

pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: "rush_hour_zipf",
        chargers: 60,
        zipf: Some(1.2),
        window_secs: 2 * 3_600,
        trip_m: (8_000.0, 12_000.0),
        sharded: true,
        durable: false,
    },
    Workload {
        name: "dispersed_day",
        chargers: 400,
        zipf: None,
        window_secs: 12 * 3_600,
        trip_m: (5_000.0, 25_000.0),
        sharded: false,
        durable: false,
    },
    Workload {
        name: "durable_restart",
        chargers: 200,
        zipf: None,
        window_secs: 12 * 3_600,
        trip_m: (2_000.0, 6_000.0),
        sharded: false,
        durable: true,
    },
];

/// Look a workload up by name.
pub fn workload(name: &str) -> Option<Workload> {
    WORKLOADS.iter().copied().find(|w| w.name == name)
}

/// A metric name the contract accepts: 1–64 of `[A-Za-z0-9_.-]`, starting
/// with a letter or digit.
pub fn valid_name(name: &str) -> bool {
    let ok_char = |c: char| c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '-';
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name.chars().all(ok_char)
}

/// What `BENCHMARK.json` says about one workload.
#[derive(Debug, Clone)]
pub struct Declared {
    /// Arrival rate, sessions per second.
    pub rate: f64,
    /// Whether Auto pruning is declared on.
    pub prune_on: bool,
    /// Declared `detour.backend` label.
    pub detour: String,
}

/// The parts of `BENCHMARK.json` the benchmark checks itself against.
#[derive(Debug, Clone)]
pub struct Contract {
    pub workloads: Vec<(String, String)>,
    pub end_to_end: Vec<(String, String)>,
    pub per_layer: Vec<(String, String)>,
}

impl Contract {
    /// Read and check `BENCHMARK.json`.
    pub fn load(path: &Path) -> Result<Self, String> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        let root = Json::parse(&text)?;
        let list = |key: &str, a: &str, b: &str| -> Result<Vec<(String, String)>, String> {
            root.get(key)
                .and_then(Json::as_array)
                .ok_or(format!("BENCHMARK.json: `{key}` must be an array"))?
                .iter()
                .map(|item| {
                    let field = |f: &str| {
                        item.get(f)
                            .and_then(Json::as_str)
                            .map(str::to_string)
                            .ok_or(format!("BENCHMARK.json: `{key}` entry lacks `{f}`"))
                    };
                    Ok((field(a)?, field(b)?))
                })
                .collect()
        };
        Ok(Self {
            workloads: list("workloads", "name", "why")?,
            end_to_end: list("end_to_end", "name", "unit")?,
            per_layer: list("per_layer", "name", "unit")?,
        })
    }

    /// Every metric the contract names must be one this program reports,
    /// with the same unit, and vice versa.
    pub fn check_registry(&self) -> Result<(), String> {
        let names = self.workloads.iter().chain(&self.end_to_end).chain(&self.per_layer);
        if let Some((bad, _)) = names.clone().find(|(n, _)| !valid_name(n)) {
            return Err(format!("BENCHMARK.json: `{bad}` is not a valid name"));
        }
        for (declared, ours, what) in [
            (&self.end_to_end, END_TO_END, "end_to_end"),
            (&self.per_layer, PER_LAYER, "per_layer"),
        ] {
            let theirs: BTreeMap<&str, &str> =
                declared.iter().map(|(n, u)| (n.as_str(), u.as_str())).collect();
            let mine: BTreeMap<&str, &str> = ours.iter().copied().collect();
            if theirs != mine {
                return Err(format!(
                    "BENCHMARK.json `{what}` does not match the metrics this benchmark reports"
                ));
            }
        }
        Ok(())
    }

    /// The rate and labels declared in a workload's `why` tag.
    pub fn declared(&self, workload: &str) -> Result<Declared, String> {
        let why = self
            .workloads
            .iter()
            .find(|(n, _)| n == workload)
            .map(|(_, why)| why.as_str())
            .ok_or(format!("BENCHMARK.json declares no workload `{workload}`"))?;
        let tags = parse_tags(why);
        let tag = |k: &str| tags.get(k).ok_or(format!("workload `{workload}`: `why` lacks `{k}=`"));
        let rate = tag("rate")?
            .trim_end_matches("/s")
            .parse::<f64>()
            .ok()
            .filter(|r| *r > 0.0)
            .ok_or(format!("workload `{workload}`: bad rate"))?;
        let prune_on = match tag("prune")?.as_str() {
            "on" => true,
            "off" => false,
            other => return Err(format!("workload `{workload}`: prune={other} is not on/off")),
        };
        let detour = tag("detour")?.clone();
        if !BACKEND_LABELS.contains(&detour.as_str()) {
            return Err(format!("workload `{workload}`: unknown detour label `{detour}`"));
        }
        Ok(Declared { rate, prune_on, detour })
    }
}

/// `key=value` pairs of the last `[...]` group in `text`.
fn parse_tags(text: &str) -> BTreeMap<String, String> {
    let Some(open) = text.rfind('[') else { return BTreeMap::new() };
    let inner = text[open + 1..].split(']').next().unwrap_or("");
    inner
        .split_whitespace()
        .filter_map(|kv| kv.split_once('='))
        .map(|(k, v)| (k.to_string(), v.to_string()))
        .collect()
}

/// A minimal JSON value — enough to read `BENCHMARK.json`.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    pub fn parse(text: &str) -> Result<Self, String> {
        let mut p = Parser { s: text.as_bytes(), i: 0 };
        let v = p.value()?;
        p.ws();
        if p.i != p.s.len() {
            return Err(format!("trailing characters at byte {}", p.i));
        }
        Ok(v)
    }

    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }
}

struct Parser<'a> {
    s: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn ws(&mut self) {
        while self.s.get(self.i).is_some_and(u8::is_ascii_whitespace) {
            self.i += 1;
        }
    }

    fn eat(&mut self, c: u8) -> Result<(), String> {
        self.ws();
        if self.s.get(self.i) == Some(&c) {
            self.i += 1;
            Ok(())
        } else {
            Err(format!("expected `{}` at byte {}", c as char, self.i))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.ws();
        match self.s.get(self.i) {
            Some(b'{') => {
                self.i += 1;
                let mut fields = Vec::new();
                self.ws();
                if self.s.get(self.i) == Some(&b'}') {
                    self.i += 1;
                    return Ok(Json::Obj(fields));
                }
                loop {
                    self.ws();
                    let key = self.string()?;
                    self.eat(b':')?;
                    fields.push((key, self.value()?));
                    self.ws();
                    match self.s.get(self.i) {
                        Some(b',') => self.i += 1,
                        Some(b'}') => {
                            self.i += 1;
                            return Ok(Json::Obj(fields));
                        }
                        _ => return Err(format!("expected `,` or `}}` at byte {}", self.i)),
                    }
                }
            }
            Some(b'[') => {
                self.i += 1;
                let mut items = Vec::new();
                self.ws();
                if self.s.get(self.i) == Some(&b']') {
                    self.i += 1;
                    return Ok(Json::Arr(items));
                }
                loop {
                    items.push(self.value()?);
                    self.ws();
                    match self.s.get(self.i) {
                        Some(b',') => self.i += 1,
                        Some(b']') => {
                            self.i += 1;
                            return Ok(Json::Arr(items));
                        }
                        _ => return Err(format!("expected `,` or `]` at byte {}", self.i)),
                    }
                }
            }
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.word("true", Json::Bool(true)),
            Some(b'f') => self.word("false", Json::Bool(false)),
            Some(b'n') => self.word("null", Json::Null),
            Some(_) => {
                let start = self.i;
                while self.s.get(self.i).is_some_and(|c| c.is_ascii_digit() || b"+-.eE".contains(c))
                {
                    self.i += 1;
                }
                std::str::from_utf8(&self.s[start..self.i])
                    .ok()
                    .and_then(|t| t.parse().ok())
                    .map(Json::Num)
                    .ok_or(format!("bad value at byte {start}"))
            }
            None => Err("unexpected end of input".to_string()),
        }
    }

    fn word(&mut self, w: &str, v: Json) -> Result<Json, String> {
        if self.s[self.i..].starts_with(w.as_bytes()) {
            self.i += w.len();
            Ok(v)
        } else {
            Err(format!("bad literal at byte {}", self.i))
        }
    }

    fn string(&mut self) -> Result<String, String> {
        if self.s.get(self.i) != Some(&b'"') {
            return Err(format!("expected a string at byte {}", self.i));
        }
        self.i += 1;
        let mut out = Vec::new();
        loop {
            match self.s.get(self.i) {
                None => return Err("unterminated string".to_string()),
                Some(b'"') => {
                    self.i += 1;
                    return String::from_utf8(out).map_err(|e| e.to_string());
                }
                Some(b'\\') => {
                    let esc = *self.s.get(self.i + 1).ok_or("unterminated escape")?;
                    self.i += 2;
                    let c = match esc {
                        b'n' => '\n',
                        b't' => '\t',
                        b'r' => '\r',
                        b'b' => '\u{8}',
                        b'f' => '\u{c}',
                        b'u' => {
                            let hex = self.s.get(self.i..self.i + 4).ok_or("short \\u escape")?;
                            self.i += 4;
                            std::str::from_utf8(hex)
                                .ok()
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .and_then(char::from_u32)
                                .ok_or("bad \\u escape")?
                        }
                        other => other as char,
                    };
                    let mut buf = [0u8; 4];
                    out.extend_from_slice(c.encode_utf8(&mut buf).as_bytes());
                }
                Some(&c) => {
                    out.push(c);
                    self.i += 1;
                }
            }
        }
    }
}
