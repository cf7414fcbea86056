//! `report diff`: explain the difference between two metric files — two
//! `perf_gate` JSONs (`BENCH_perf_gate.json` or a `--json` output) or two
//! `rbamr_bench --json` outputs — by layer rather than as a list of keys.
//!
//! A perf-gate key is `<deck>.r<ranks>.<kind>.<name>`; a benchmark metric
//! is `<layer>.<name>` (an end-to-end metric has no dot). [`diff`] groups
//! the keys that moved by (kind, name) across deck/rank combos, so one
//! move reads "`kernel_launches.copy-region` down at every rank count",
//! attributes each to a layer, checks the bucket identity on both sides
//! (per combo, Σ buckets = ranks × makespan), and ranks the moves by
//! size. The [`std::fmt::Display`] of a [`Diff`] is the text report.

use rbamr_hydro::level_executor::{DATA_MOVEMENT_KERNEL_NAMES, TAG_KERNEL_NAMES};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// Relative tolerance of the bucket identity: the perf-gate file prints
/// ten significant digits.
const IDENTITY_TOL: f64 = 1e-6;

/// A metric file as key → value.
pub type Metrics = BTreeMap<String, f64>;

/// Parse a perf-gate JSON (one flat object of numbers) or an
/// `rbamr_bench --json` output (its `metrics` object of `{"value": v}`
/// entries) into key → value.
pub fn parse(text: &str) -> Result<Metrics, String> {
    let mut p = Parser { s: text.as_bytes(), i: 0 };
    let value = p.value()?;
    p.ws();
    if p.i != p.s.len() {
        return Err(format!("trailing text at byte {}", p.i));
    }
    let Json::Obj(top) = value else { return Err("not a JSON object".into()) };
    let mut out = Metrics::new();
    if let Some((_, Json::Obj(metrics))) = top.iter().find(|(k, _)| k == "metrics") {
        for (name, m) in metrics {
            let Json::Obj(fields) = m else { return Err(format!("metric {name}: not an object")) };
            match fields.iter().find(|(k, _)| k == "value") {
                Some((_, Json::Num(v))) => out.insert(name.clone(), *v),
                _ => return Err(format!("metric {name}: no numeric value")),
            };
        }
    } else {
        for (key, v) in top {
            let Json::Num(v) = v else { return Err(format!("{key}: not a number")) };
            out.insert(key, v);
        }
    }
    Ok(out)
}

enum Json {
    Num(f64),
    Other,
    Obj(Vec<(String, Json)>),
}

/// Just enough JSON for the two metric formats: objects, arrays,
/// strings without escapes beyond `\"` and `\\`, numbers, literals.
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

    fn eat(&mut self, c: u8) -> bool {
        self.ws();
        let hit = self.s.get(self.i) == Some(&c);
        self.i += usize::from(hit);
        hit
    }

    fn string(&mut self) -> Result<String, String> {
        if !self.eat(b'"') {
            return Err(format!("expected a string at byte {}", self.i));
        }
        let mut out = Vec::new();
        while let Some(&c) = self.s.get(self.i) {
            self.i += 1;
            match c {
                b'"' => return String::from_utf8(out).map_err(|e| e.to_string()),
                b'\\' => {
                    out.extend(self.s.get(self.i));
                    self.i += 1;
                }
                _ => out.push(c),
            }
        }
        Err("unterminated string".into())
    }

    fn value(&mut self) -> Result<Json, String> {
        self.ws();
        match self.s.get(self.i) {
            Some(b'{') => {
                self.i += 1;
                let mut fields = Vec::new();
                if self.eat(b'}') {
                    return Ok(Json::Obj(fields));
                }
                loop {
                    let key = self.string()?;
                    if !self.eat(b':') {
                        return Err(format!("expected ':' after {key:?}"));
                    }
                    fields.push((key, self.value()?));
                    if self.eat(b'}') {
                        return Ok(Json::Obj(fields));
                    }
                    if !self.eat(b',') {
                        return Err(format!("expected ',' or '}}' at byte {}", self.i));
                    }
                }
            }
            Some(b'[') => {
                self.i += 1;
                if !self.eat(b']') {
                    loop {
                        self.value()?;
                        if self.eat(b']') {
                            break;
                        }
                        if !self.eat(b',') {
                            return Err(format!("expected ',' or ']' at byte {}", self.i));
                        }
                    }
                }
                Ok(Json::Other)
            }
            Some(b'"') => self.string().map(|_| Json::Other),
            Some(_) => {
                let start = self.i;
                while self.s.get(self.i).is_some_and(|c| !b",}] \t\r\n".contains(c)) {
                    self.i += 1;
                }
                let word =
                    std::str::from_utf8(&self.s[start..self.i]).map_err(|e| e.to_string())?;
                match word {
                    "true" | "false" | "null" => Ok(Json::Other),
                    _ => word.parse().map(Json::Num).map_err(|e| format!("{word:?}: {e}")),
                }
            }
            None => Err("unexpected end of input".into()),
        }
    }
}

/// One key, split into where it was measured and what it is.
#[derive(Clone, Debug)]
pub struct Key {
    /// `<deck>.r<ranks>` for a perf-gate key, `run` for a benchmark metric.
    pub combo: String,
    /// `bucket`, `counter`, `critical_path`, `gauge`, `makespan`, `phase`,
    /// or `metric` for a benchmark metric.
    pub kind: String,
    /// The rest of the key: `device.kernel_launches.pack`, `advection_s`.
    pub name: String,
}

impl Key {
    /// Split `key`: a perf-gate key when its second part is `r<ranks>`.
    pub fn parse(key: &str) -> Key {
        let parts: Vec<&str> = key.splitn(4, '.').collect();
        let rank_part =
            |p: &str| p.len() > 1 && p.starts_with('r') && p[1..].parse::<u32>().is_ok();
        match parts.as_slice() {
            [deck, r, "makespan_s"] if rank_part(r) => Key {
                combo: format!("{deck}.{r}"),
                kind: "makespan".into(),
                name: "makespan_s".into(),
            },
            [deck, r, kind, name] if rank_part(r) => {
                Key { combo: format!("{deck}.{r}"), kind: (*kind).into(), name: (*name).into() }
            }
            _ => Key { combo: "run".into(), kind: "metric".into(), name: key.into() },
        }
    }

    /// The kernel of a `device.kernel_launches.<kernel>` counter.
    pub fn kernel(&self) -> Option<&str> {
        self.name.strip_prefix("device.kernel_launches.")
    }

    /// The layer a key measures. Virtual seconds of the whole run
    /// (buckets, makespan, critical-path seconds) are the causal model's;
    /// a launch counter belongs to its kernel's layer, where every name
    /// outside the data-movement and tagging lists is a hydro kernel.
    pub fn layer(&self) -> &'static str {
        let head = self.name.split('.').next().unwrap_or("");
        match self.kind.as_str() {
            "bucket" | "makespan" | "critical_path" => "perfmodel",
            "phase" => match self.name.trim_end_matches("_s") {
                "regrid" | "regrid-phase" | "refine-fill" => "amr",
                "h2d-copy" => "device",
                p if p.starts_with("allreduce") => "netsim",
                _ => "hydro",
            },
            "metric" if !self.name.contains('.') => "end-to-end",
            "metric" => match head {
                "geometry" => "geometry",
                "perfmodel" => "perfmodel",
                "device" => "device",
                "netsim" => "netsim",
                "amr" => "amr",
                "gpu-amr" => "gpu-amr",
                "hydro" => "hydro",
                "telemetry" => "telemetry",
                _ => "harness",
            },
            _ => match (head, self.kernel()) {
                (_, Some(k)) if TAG_KERNEL_NAMES.contains(&k) => "tagging",
                (_, Some(k)) if DATA_MOVEMENT_KERNEL_NAMES.contains(&k) => "gpu-amr",
                (_, Some(_)) => "hydro",
                ("device", None) => "device",
                ("net", _) => "netsim",
                ("amr" | "schedule" | "regrid", _) => "amr",
                ("pack" | "unpack", _) => "gpu-amr",
                ("hydro", _) => "hydro",
                ("critical_path", _) => "telemetry",
                _ => "other",
            },
        }
    }
}

/// The rank count of a `<deck>.r<ranks>` combo.
fn ranks_of(combo: &str) -> Option<u32> {
    combo.rsplit_once(".r").and_then(|(_, r)| r.parse().ok())
}

/// The deck of a `<deck>.r<ranks>` combo (`run` for a benchmark file).
fn deck_of(combo: &str) -> &str {
    combo.rsplit_once(".r").map_or(combo, |(deck, _)| deck)
}

/// One (kind, name) that moved in at least one combo.
#[derive(Clone, Debug)]
pub struct Move {
    pub kind: String,
    pub name: String,
    pub layer: &'static str,
    /// `(combo, before, after)` where it differs; `None` is absent.
    pub changed: Vec<(String, Option<f64>, Option<f64>)>,
    /// Combos where it is present on both sides and equal.
    pub unchanged: Vec<String>,
}

impl Move {
    /// The largest relative change over the combos; infinite where the
    /// key appears or disappears.
    pub fn size(&self) -> f64 {
        let rel = |a: Option<f64>, b: Option<f64>| match (a, b) {
            (Some(a), Some(b)) if a != 0.0 => ((b - a) / a).abs(),
            _ => f64::INFINITY,
        };
        self.changed.iter().map(|&(_, a, b)| rel(a, b)).fold(0.0, f64::max)
    }

    /// `up`, `down` or `mixed` over the combos where it is on both
    /// sides; `added` / `removed` where it is on one side only.
    pub fn direction(&self) -> &'static str {
        let mut seen = BTreeSet::new();
        for &(_, a, b) in &self.changed {
            seen.insert(match (a, b) {
                (Some(a), Some(b)) if b > a => "up",
                (Some(_), Some(_)) => "down",
                (None, _) => "added",
                (_, None) => "removed",
            });
        }
        match seen.len() {
            1 => seen.into_iter().next().unwrap_or("mixed"),
            _ => "mixed",
        }
    }

    /// Which rank counts it moved at: `all ranks`, or e.g. `r2/r4 only`
    /// when a deck it moved in has it at other rank counts too, unmoved.
    pub fn rank_pattern(&self) -> String {
        let decks = self.decks();
        let in_decks = |c: &&String| decks.contains(deck_of(c));
        let moved: BTreeSet<u32> = self.changed.iter().filter_map(|c| ranks_of(&c.0)).collect();
        let all: BTreeSet<u32> =
            self.unchanged.iter().filter(in_decks).filter_map(|c| ranks_of(c)).collect();
        let all = &all | &moved;
        if moved.is_empty() {
            String::new()
        } else if moved == all {
            "all ranks".into()
        } else {
            let r: Vec<String> = moved.iter().map(|r| format!("r{r}")).collect();
            format!("{} only", r.join("/"))
        }
    }

    /// The decks it moved in.
    pub fn decks(&self) -> BTreeSet<&str> {
        self.changed.iter().map(|c| deck_of(&c.0)).collect()
    }
}

/// Per combo, Σ buckets against ranks × makespan.
#[derive(Clone, Debug, Default)]
pub struct Identity {
    /// `(combo, relative error)`, every combo with a makespan.
    pub combos: Vec<(String, f64)>,
}

impl Identity {
    fn of(metrics: &Metrics) -> Identity {
        let mut sums: BTreeMap<String, (f64, Option<f64>)> = BTreeMap::new();
        for (key, &v) in metrics {
            let k = Key::parse(key);
            let entry = sums.entry(k.combo.clone()).or_default();
            match k.kind.as_str() {
                "bucket" => entry.0 += v,
                "makespan" => entry.1 = Some(v),
                _ => {}
            }
        }
        let combos = sums
            .into_iter()
            .filter_map(|(combo, (sum, makespan))| {
                let ranks = ranks_of(&combo)?;
                let whole = f64::from(ranks) * makespan?;
                Some((combo, ((sum - whole) / whole.abs().max(f64::MIN_POSITIVE)).abs()))
            })
            .collect();
        Identity { combos }
    }

    /// Every combo's buckets add up to its ranks × makespan.
    pub fn holds(&self) -> bool {
        self.combos.iter().all(|c| c.1 <= IDENTITY_TOL)
    }

    fn worst(&self) -> f64 {
        self.combos.iter().map(|c| c.1).fold(0.0, f64::max)
    }
}

/// What moved between two metric files.
#[derive(Clone, Debug)]
pub struct Diff {
    /// Keys in the before and after files.
    pub keys: (usize, usize),
    /// Keys present on both sides whose values differ.
    pub moved: usize,
    pub added: usize,
    pub removed: usize,
    /// The moves, largest first.
    pub moves: Vec<Move>,
    /// The bucket identity of the before and after files.
    pub identity: (Identity, Identity),
}

/// Compare `before` with `after`.
pub fn diff(before: &Metrics, after: &Metrics) -> Diff {
    let mut groups: BTreeMap<(String, String), Move> = BTreeMap::new();
    let (mut moved, mut added, mut removed) = (0, 0, 0);
    let keys: BTreeSet<&String> = before.keys().chain(after.keys()).collect();
    for key in keys {
        let k = Key::parse(key);
        let layer = k.layer();
        let g = groups.entry((k.kind.clone(), k.name.clone())).or_insert_with(|| Move {
            kind: k.kind.clone(),
            name: k.name.clone(),
            layer,
            changed: Vec::new(),
            unchanged: Vec::new(),
        });
        let (a, b) = (before.get(key).copied(), after.get(key).copied());
        match (a, b) {
            (Some(x), Some(y)) if x == y => g.unchanged.push(k.combo),
            _ => {
                moved += usize::from(a.is_some() && b.is_some());
                added += usize::from(a.is_none());
                removed += usize::from(b.is_none());
                g.changed.push((k.combo, a, b));
            }
        }
    }
    let mut moves: Vec<Move> = groups.into_values().filter(|m| !m.changed.is_empty()).collect();
    moves.sort_by(|x, y| y.size().total_cmp(&x.size()).then_with(|| x.name.cmp(&y.name)));
    Diff {
        keys: (before.len(), after.len()),
        moved,
        added,
        removed,
        moves,
        identity: (Identity::of(before), Identity::of(after)),
    }
}

impl Diff {
    /// Changed keys per (layer, kind).
    pub fn by_layer(&self) -> BTreeMap<(&'static str, &str), usize> {
        let mut out = BTreeMap::new();
        for m in &self.moves {
            *out.entry((m.layer, m.kind.as_str())).or_insert(0) += m.changed.len();
        }
        out
    }

    /// Changed keys per combo.
    pub fn by_combo(&self) -> BTreeMap<&str, usize> {
        let mut out = BTreeMap::new();
        for m in &self.moves {
            for c in &m.changed {
                *out.entry(c.0.as_str()).or_insert(0) += 1;
            }
        }
        out
    }

    /// The move of one (kind, name), if it moved.
    pub fn get(&self, kind: &str, name: &str) -> Option<&Move> {
        self.moves.iter().find(|m| m.kind == kind && m.name == name)
    }
}

fn value(v: Option<f64>) -> String {
    match v {
        None => "-".into(),
        Some(v) if v == v.trunc() && v.abs() < 1e15 => format!("{v}"),
        Some(v) => format!("{v:.4e}"),
    }
}

impl fmt::Display for Diff {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{} -> {} keys: {} moved, {} added, {} removed",
            self.keys.0, self.keys.1, self.moved, self.added, self.removed
        )?;
        for (side, id) in [("before", &self.identity.0), ("after", &self.identity.1)] {
            if !id.combos.is_empty() {
                let verdict = if id.holds() { "holds" } else { "FAILS" };
                writeln!(
                    f,
                    "bucket identity (sum of buckets = ranks x makespan), {side}: {verdict} on {} combos, worst relative error {:.1e}",
                    id.combos.len(),
                    id.worst()
                )?;
            }
        }
        writeln!(f, "\nby combo:")?;
        for (combo, n) in self.by_combo() {
            writeln!(f, "  {combo:<24} {n:>4}")?;
        }
        writeln!(f, "\nby layer and kind:")?;
        for ((layer, kind), n) in self.by_layer() {
            let dirs: BTreeMap<&str, usize> = self
                .moves
                .iter()
                .filter(|m| m.layer == layer && m.kind == kind)
                .fold(BTreeMap::new(), |mut acc, m| {
                    *acc.entry(m.direction()).or_insert(0) += 1;
                    acc
                });
            let moves: usize = dirs.values().sum();
            let dirs: Vec<String> = dirs.iter().map(|(d, n)| format!("{d} {n}")).collect();
            writeln!(
                f,
                "  {layer:<10} {kind:<13} {n:>4} keys in {moves:>3} moves: {}",
                dirs.join(", ")
            )?;
        }
        let kernels: Vec<&Move> =
            self.moves.iter().filter(|m| m.name.starts_with("device.kernel_launches.")).collect();
        if !kernels.is_empty() {
            writeln!(f, "\nper kernel (device.kernel_launches.<kernel>):")?;
            for m in kernels {
                let cells: Vec<String> = m
                    .changed
                    .iter()
                    .map(|(c, a, b)| format!("{c} {} -> {}", value(*a), value(*b)))
                    .collect();
                let kernel = m.name.trim_start_matches("device.kernel_launches.");
                writeln!(
                    f,
                    "  {kernel:<20} [{}] {}: {}",
                    m.layer,
                    m.direction(),
                    cells.join(", ")
                )?;
            }
        }
        writeln!(f, "\nranked moves (largest relative change first):")?;
        for m in &self.moves {
            let size = m.size();
            let size = if size.is_finite() {
                format!("{:>8.2}%", 100.0 * size)
            } else {
                "     new/gone".into()
            };
            let decks: Vec<&str> = m.decks().into_iter().collect();
            writeln!(
                f,
                "  {size}  {} {} [{}] {}; {}; {}",
                m.kind,
                m.name,
                m.layer,
                m.direction(),
                m.rank_pattern(),
                decks.join("+")
            )?;
            for (c, a, b) in &m.changed {
                writeln!(f, "              {c}: {} -> {}", value(*a), value(*b))?;
            }
        }
        Ok(())
    }
}
