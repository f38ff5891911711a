//! Grades a figure's declared [`Claim`] against its measured TSV.
//!
//! One rule: **every effect is computed inside one repeat**. A claim
//! reduces to a few named effects, each a ratio of two cells of one repeat
//! (two series at an x, one series at two xs) or a trend (last-x ratio over
//! first-x ratio). Its interval is the min–max of its per-repeat values, its
//! midpoint their median, so drift both cells share cancels. An interval
//! straddling a threshold is `Unresolved`: the gap is inside the spread.

use std::fmt;
use std::path::Path;

use crate::figures::{Claim, Figure};

/// Times every point of a figure is measured; fewer in a TSV is `Invalid`.
pub const REPEATS: usize = 3;

/// What a claim earns on measured data, worst first (a figure's verdict
/// is the minimum over its effects).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Verdict {
    /// Not a measurement: failed requests, a missing point or repeat.
    Invalid,
    /// Resolved, and not in the paper's direction.
    NotReproduced,
    /// A threshold lies inside the spread.
    Unresolved,
    /// Resolved in the paper's direction, short of the declared size.
    Attenuated,
    Holds,
}

impl fmt::Display for Verdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Verdict::Invalid => "INVALID",
            Verdict::NotReproduced => "NOT REPRODUCED",
            Verdict::Unresolved => "UNRESOLVED",
            Verdict::Attenuated => "ATTENUATED",
            Verdict::Holds => "HOLDS",
        })
    }
}

/// Median and min–max of per-repeat values: a point's, or an effect's.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Spread {
    pub lo: f64,
    pub mid: f64,
    pub hi: f64,
}

impl Spread {
    pub fn of(v: &[f64]) -> Spread {
        let mut v = v.to_vec();
        v.sort_by(f64::total_cmp);
        let n = v.len();
        Spread { lo: v[0], mid: (v[(n - 1) / 2] + v[n / 2]) / 2.0, hi: v[n - 1] }
    }
}

impl fmt::Display for Spread {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.2} ({:.2}–{:.2})", self.mid, self.lo, self.hi)
    }
}

type Points = Vec<(String, Vec<f64>)>;

/// A figure's measured points in Mrec/s: per series, per x (both in sweep
/// order, so "first x" is the smallest), the value at each repeat index.
#[derive(Clone, Debug, PartialEq)]
pub struct Series(pub Vec<(String, Points)>);

/// The entry named `key`: a series by name, or a point by x.
fn find<'a, T>(entries: &'a [(String, T)], key: &str) -> Option<&'a T> {
    entries.iter().find(|(k, _)| k == key).map(|(_, v)| v)
}

/// `num[k] / den[k]` at every repeat `k`.
fn per_repeat(num: &[f64], den: &[f64]) -> Vec<f64> {
    num.iter().zip(den).map(|(n, d)| n / d).collect()
}

/// The point with the highest median.
fn best(points: &Points) -> Option<&(String, Vec<f64>)> {
    points.iter().max_by(|a, b| Spread::of(&a.1).mid.total_cmp(&Spread::of(&b.1).mid))
}

/// One graded quantity of a claim, a ratio per repeat: the claim holds
/// from `holds` up, and 1 (or `holds`, if lower) is no effect at all.
struct Effect {
    label: String,
    values: Vec<f64>,
    holds: f64,
}

impl Effect {
    fn grade(&self) -> Verdict {
        let (Spread { lo, hi, .. }, null) = (Spread::of(&self.values), self.holds.min(1.0));
        if lo >= self.holds {
            Verdict::Holds
        } else if hi <= null {
            Verdict::NotReproduced
        } else if lo > null && hi < self.holds {
            Verdict::Attenuated
        } else {
            Verdict::Unresolved
        }
    }
}

/// `a / b` at every x of `a` as one effect each.
fn per_x(s: &Series, a: &str, b: &str, holds: f64) -> Option<Vec<Effect>> {
    let den = find(&s.0, b)?;
    let at_x = |(x, num): &(String, Vec<f64>)| {
        let values = per_repeat(num, find(den, x)?);
        Some(Effect { label: format!("{a} / {b} @{x}"), values, holds })
    };
    find(&s.0, a)?.iter().map(at_x).collect()
}

/// The effects `claim` asks about; `None` if it names a series or x that
/// `s` lacks.
fn effects(claim: &Claim, s: &Series) -> Option<Vec<Effect>> {
    Some(match *claim {
        Claim::Ratio { num, den, floor, grows } => {
            let mut out = per_x(s, num, den, floor)?;
            if let (Some(holds), [first, .., last]) = (grows, &out[..]) {
                let label = format!("{} over {}", last.label, first.label);
                let values = per_repeat(&last.values, &first.values);
                out.push(Effect { label, values, holds });
            }
            out
        }
        Claim::Ordering { series } => {
            let pairs = series.windows(2).map(|w| per_x(s, w[0], w[1], 1.0));
            pairs.collect::<Option<Vec<_>>>()?.into_iter().flatten().collect()
        }
        Claim::Gain { of, over, min } => {
            let mid = |e: &Effect| Spread::of(&e.values).mid;
            let by_x = per_x(s, of, over, min)?.into_iter();
            let mut top = by_x.max_by(|a, b| mid(a).total_cmp(&mid(b)))?;
            top.label += " (its best x)";
            vec![top]
        }
        Claim::Drop { series, min } | Claim::Growth { series, min } => {
            let points = find(&s.0, series)?;
            let drop = matches!(claim, Claim::Drop { .. });
            let (top, end) = (best(points)?, if drop { points.last() } else { points.first() }?);
            let label = format!("{series} @{} (its best x) / @{}", top.0, end.0);
            vec![Effect { label, values: per_repeat(&top.1, &end.1), holds: min }]
        }
        Claim::Plateau { mid, floor: holds } => {
            let mut out = Vec::new();
            for (name, points) in &s.0 {
                let (lx, last) = points.last()?;
                for &m in mid {
                    let values = per_repeat(find(points, m)?, last);
                    out.push(Effect { label: format!("{name} @{m} / @{lx}"), values, holds });
                }
            }
            out
        }
    })
}

/// A claim's verdict is its worst effect's.
fn worst(effects: &[Effect]) -> Verdict {
    effects.iter().map(Effect::grade).min().unwrap_or(Verdict::Invalid)
}

/// The verdict `claim` earns on `s`.
pub fn verdict(claim: &Claim, s: &Series) -> Verdict {
    effects(claim, s).map_or(Verdict::Invalid, |e| worst(&e))
}

/// Where `fig`'s TSV lives under `dir`.
pub fn tsv_path(fig: &Figure, dir: &Path) -> std::path::PathBuf {
    dir.join(format!("{}.tsv", fig.id))
}

/// Reads `<dir>/<fig.id>.tsv` into every declared point's value at each
/// repeat index. `Err` says why the file is not a measurement of `fig`:
/// unreadable, a row with failed requests, a declared point lacking a
/// repeat another has or with fewer than [`REPEATS`].
pub fn load(fig: &Figure, dir: &Path) -> Result<Series, String> {
    load_column(fig, dir, "mrecords_per_sec")
}

/// [`load`] of another numeric column of the TSV, in its own unit.
pub fn load_column(fig: &Figure, dir: &Path, column: &str) -> Result<Series, String> {
    let path = tsv_path(fig, dir);
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut lines = text.lines();
    let header: Vec<&str> = lines.next().unwrap_or("").split('\t').collect();
    let col = |name: &str| {
        let missing = || format!("{}: no {name} column", path.display());
        header.iter().position(|h| *h == name).ok_or_else(missing)
    };
    let [series, x, repeat, value, failed] =
        [col("series")?, col("x")?, col("repeat")?, col(column)?, col("failed_requests")?];
    let mut samples = Vec::new();
    for line in lines {
        let f: Vec<&str> = line.split('\t').collect();
        let bad = || format!("{}: malformed row {line:?}", path.display());
        if f.len() <= series.max(x).max(repeat).max(value).max(failed) {
            return Err(bad());
        }
        if f[failed] != "0" {
            return Err(format!("{} @{}: {} failed produce requests", f[series], f[x], f[failed]));
        }
        let k = f[repeat].parse::<usize>().map_err(|_| bad())?;
        samples.push((f[series], f[x], k, f[value].parse::<f64>().map_err(|_| bad())?));
    }
    let repeats = samples.iter().map(|s| s.2 + 1).max().unwrap_or(0).max(REPEATS);
    let mut out: Vec<(String, Points)> = Vec::new();
    for p in &fig.points {
        let cell = |k| samples.iter().find(|s| (s.0, s.1, s.2) == (&*p.series, &*p.x, k));
        let v: Vec<f64> = (0..repeats).filter_map(|k| Some(cell(k)?.3)).collect();
        if v.len() < repeats {
            return Err(format!("{} @{}: {} of {repeats} repeats", p.series, p.x, v.len()));
        }
        match out.iter_mut().find(|(n, _)| *n == p.series) {
            Some((_, points)) => points.push((p.x.clone(), v)),
            None => out.push((p.series.clone(), vec![(p.x.clone(), v)])),
        }
    }
    Ok(Series(out))
}

/// The verdict `fig`'s claim earns on what [`load`] returned, with every
/// effect behind it as `label = median (min–max)`, or `Invalid` with the
/// reason.
pub fn grade(fig: &Figure, loaded: &Result<Series, String>) -> (Verdict, String) {
    let effects = match loaded {
        Ok(s) => effects(&fig.claim, s).ok_or("the claim names a series or x the sweep lacks"),
        Err(why) => Err(why.as_str()),
    };
    match effects {
        Ok(e) => {
            let part = |e: &Effect| format!("{} = {}", e.label, Spread::of(&e.values));
            (worst(&e), e.iter().map(part).collect::<Vec<_>>().join("; "))
        }
        Err(why) => (Verdict::Invalid, why.to_string()),
    }
}

/// [`grade`] of `<dir>/<fig.id>.tsv`.
pub fn check(fig: &Figure, dir: &Path) -> (Verdict, String) {
    grade(fig, &load(fig, dir))
}

#[cfg(test)]
mod tests {
    use super::*;
    use Verdict::*;

    /// A series measured at x = "1", "2", …, each x given its value at
    /// every repeat.
    fn line(name: &str, points: &[[f64; 3]]) -> (String, Points) {
        let point = |(i, v): (usize, &[f64; 3])| ((i + 1).to_string(), v.to_vec());
        (name.to_string(), points.iter().enumerate().map(point).collect())
    }

    /// The verdict of `claim` on series "a" and "b" given per repeat.
    fn on_repeats(claim: Claim, a: &[[f64; 3]], b: &[[f64; 3]]) -> Verdict {
        verdict(&claim, &Series(vec![line("a", a), line("b", b)]))
    }

    /// The verdict of `claim` on series "a" (and "b", if given) whose
    /// every point reads the same value in each of the three repeats.
    fn on(claim: Claim, a: &[f64], b: &[f64]) -> Verdict {
        let steady = |v: &[f64]| -> Vec<[f64; 3]> { v.iter().map(|&m| [m; 3]).collect() };
        on_repeats(claim, &steady(a), &steady(b))
    }

    #[test]
    fn median_and_spread_of_repeats() {
        assert_eq!(Spread::of(&[3.0, 1.0, 2.0]), Spread { lo: 1.0, mid: 2.0, hi: 3.0 });
        assert_eq!(Spread::of(&[4.0, 1.0]), Spread { lo: 1.0, mid: 2.5, hi: 4.0 });
    }

    #[test]
    fn ratio_claim() {
        let floor = Claim::Ratio { num: "a", den: "b", floor: 1.5, grows: None };
        assert_eq!(on(floor, &[2.0, 3.0], &[1.0, 1.0]), Holds);
        assert_eq!(on(floor, &[1.2, 1.3], &[1.0, 1.0]), Attenuated);
        assert_eq!(on(floor, &[2.0, 0.5], &[1.0, 1.0]), NotReproduced);
        let straddles = [[2.0; 3], [1.4, 1.5, 1.6]];
        assert_eq!(on_repeats(floor, &straddles, &[[1.0; 3]; 2]), Unresolved);
        let grows = Claim::Ratio { num: "a", den: "b", floor: 1.0, grows: Some(1.2) };
        assert_eq!(on(grows, &[2.0, 3.0], &[1.0, 1.0]), Holds);
        assert_eq!(on(grows, &[2.0, 2.2], &[1.0, 1.0]), Attenuated);
        assert_eq!(on(grows, &[3.0, 2.0], &[1.0, 1.0]), NotReproduced);
        let straddles = [[2.0; 3], [2.4, 2.2, 2.6]];
        assert_eq!(on_repeats(grows, &straddles, &[[1.0; 3]; 2]), Unresolved);
    }

    #[test]
    fn ordering_claim() {
        let claim = Claim::Ordering { series: &["a", "b"] };
        assert_eq!(on(claim, &[3.0, 2.0], &[2.0, 1.0]), Holds);
        assert_eq!(on(claim, &[3.0, 1.0], &[2.0, 2.0]), NotReproduced);
        let straddles = [[3.0; 3], [1.05, 0.95, 1.15]];
        assert_eq!(on_repeats(claim, &straddles, &[[2.0; 3], [1.0; 3]]), Unresolved);
    }

    #[test]
    fn gain_claim() {
        let claim = Claim::Gain { of: "a", over: "b", min: 1.15 };
        assert_eq!(on(claim, &[1.0, 1.3], &[1.0, 1.0]), Holds);
        assert_eq!(on(claim, &[1.05, 1.08], &[1.0, 1.0]), Attenuated);
        assert_eq!(on(claim, &[0.9, 0.8], &[1.0, 1.0]), NotReproduced);
        let straddles = [[1.1; 3], [1.15, 1.05, 1.25]];
        assert_eq!(on_repeats(claim, &straddles, &[[1.0; 3]; 2]), Unresolved);
    }

    #[test]
    fn drop_claim() {
        let claim = Claim::Drop { series: "a", min: 1.33 };
        assert_eq!(on(claim, &[1.0, 1.1, 0.6], &[]), Holds);
        assert_eq!(on(claim, &[1.0, 1.1, 0.95], &[]), Attenuated);
        // Best at its last x: no drop, however wide the spread.
        let best_last = [[0.6, 0.8, 1.0], [0.7, 0.9, 1.1], [0.8, 1.0, 1.2]];
        assert_eq!(on_repeats(claim, &best_last, &[]), NotReproduced);
        let straddles = [[1.0; 3], [1.02, 0.97, 1.07], [1.0; 3]];
        assert_eq!(on_repeats(claim, &straddles, &[]), Unresolved);
    }

    #[test]
    fn growth_claim() {
        let claim = Claim::Growth { series: "a", min: 1.3 };
        assert_eq!(on(claim, &[0.5, 0.8, 1.0], &[]), Holds);
        assert_eq!(on(claim, &[1.0, 1.1, 1.15], &[]), Attenuated);
        assert_eq!(on(claim, &[1.0, 0.9, 0.8], &[]), NotReproduced);
        let straddles = [[1.0; 3], [1.2; 3], [1.3, 1.2, 1.4]];
        assert_eq!(on_repeats(claim, &straddles, &[]), Unresolved);
    }

    #[test]
    fn plateau_claim() {
        let claim = Claim::Plateau { mid: &["2", "3"], floor: 0.9 };
        let flat = [1.0, 1.0, 1.0, 1.0];
        assert_eq!(on(claim, &[1.0, 1.1, 1.05, 1.0], &flat), Holds);
        assert_eq!(on(claim, &[1.0, 0.5, 1.05, 1.0], &flat), NotReproduced);
        let straddles = [[1.0; 3], [0.92, 0.87, 0.97], [0.95; 3], [1.0; 3]];
        assert_eq!(on_repeats(claim, &straddles, &[[1.0; 3]; 4]), Unresolved);
    }

    #[test]
    fn a_claim_about_an_unmeasured_series_or_x_is_invalid() {
        let ratio = Claim::Ratio { num: "a", den: "c", floor: 1.0, grows: None };
        assert_eq!(on(ratio, &[1.0], &[1.0]), Invalid);
        let ratio = Claim::Ratio { num: "a", den: "b", floor: 1.0, grows: None };
        assert_eq!(on(ratio, &[1.0, 1.0], &[1.0]), Invalid, "b has no x = 2");
        assert_eq!(on(Claim::Plateau { mid: &["9"], floor: 0.9 }, &[1.0], &[1.0]), Invalid);
    }

    /// The check the deleted Python never made: it printed fig08's verdict
    /// unconditionally, so the committed table with KerA's and Kafka's R3
    /// series exchanged read exactly as well.
    #[test]
    fn fig08_with_the_two_systems_exchanged_does_not_hold() {
        let fig = crate::figure("fig08").unwrap();
        let results = Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/../../results"));
        let mut s = load(&fig, results).expect("results/fig08.tsv is a measurement");
        let measured = verdict(&fig.claim, &s);
        for (name, _) in &mut s.0 {
            *name = match name.as_str() {
                "KerA R3" => "Kafka R3".into(),
                "Kafka R3" => "KerA R3".into(),
                _ => continue,
            };
        }
        let exchanged = verdict(&fig.claim, &s);
        assert_ne!(exchanged, Holds);
        assert!(exchanged <= measured, "{exchanged} exchanged, {measured} as measured");
    }
}
