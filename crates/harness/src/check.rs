//! Grades a figure's declared [`Claim`] against its measured TSV.
//!
//! A point is the median of its repeats with their min–max spread; a
//! claim reduces to a few named effects (a ratio, a drop, a growth), each
//! an interval widened to every pairing of the spreads it was computed
//! from. An effect whose interval straddles a threshold is `Unresolved`:
//! the gap asked about is inside the run-to-run spread.

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

/// Median and min–max of a point's repeats, or of a value derived from
/// such points.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Spread {
    pub lo: f64,
    pub mid: f64,
    pub hi: f64,
}

impl Spread {
    pub fn of(mut v: Vec<f64>) -> Spread {
        v.sort_by(f64::total_cmp);
        let n = v.len();
        Spread { lo: v[0], mid: (v[(n - 1) / 2] + v[n / 2]) / 2.0, hi: v[n - 1] }
    }

    /// `self / den`, from den's best repeat against self's worst to the
    /// reverse.
    fn over(self, den: Spread) -> Spread {
        Spread { lo: self.lo / den.hi, mid: self.mid / den.mid, hi: self.hi / den.lo }
    }
}

impl fmt::Display for Spread {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.2} ({:.2}–{:.2})", self.mid, self.lo, self.hi)
    }
}

type Points = Vec<(String, Spread)>;

/// A figure's measured points in Mrec/s: per series, per x, both in
/// sweep order (so "first x" is the smallest and "last x" the largest).
#[derive(Clone, Debug, PartialEq)]
pub struct Series(pub Vec<(String, Points)>);

impl Series {
    fn get(&self, name: &str) -> Option<&Points> {
        self.0.iter().find(|(n, _)| n == name).map(|(_, p)| p)
    }
}

fn at(points: &Points, x: &str) -> Option<Spread> {
    points.iter().find(|(px, _)| px == x).map(|(_, s)| *s)
}

/// `num / den` at every x of `num`.
fn ratios(s: &Series, num: &str, den: &str) -> Option<Points> {
    let den = s.get(den)?;
    s.get(num)?.iter().map(|(x, a)| Some((x.clone(), a.over(at(den, x)?)))).collect()
}

/// The point with the highest median.
fn best(points: &Points) -> Option<&(String, Spread)> {
    points.iter().max_by(|a, b| a.1.mid.total_cmp(&b.1.mid))
}

/// One graded quantity of a claim, a ratio: the claim holds from `holds`
/// up, and 1 (or `holds`, if that is lower) is no effect at all.
struct Effect {
    label: String,
    value: Spread,
    holds: f64,
}

impl Effect {
    fn grade(&self) -> Verdict {
        let (Spread { lo, hi, .. }, null) = (self.value, self.holds.min(1.0));
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

/// `a / b` at every x as one effect each.
fn per_x(s: &Series, a: &str, b: &str, holds: f64) -> Option<Vec<Effect>> {
    let at_x = |(x, value): (String, Spread)| {
        Effect { label: format!("{a} / {b} @{x}"), value, holds }
    };
    Some(ratios(s, a, b)?.into_iter().map(at_x).collect())
}

/// The effects `claim` asks about; `None` if it names a series or x that
/// `s` lacks.
fn effects(claim: &Claim, s: &Series) -> Option<Vec<Effect>> {
    Some(match *claim {
        Claim::Ratio { num, den, floor, grows } => {
            let mut out = per_x(s, num, den, floor)?;
            if let (Some(holds), [first, .., last]) = (grows, &out[..]) {
                let label = format!("{} over {}", last.label, first.label);
                let trend = Effect { label, value: last.value.over(first.value), holds };
                out.push(trend);
            }
            out
        }
        Claim::Ordering { series } => {
            let pairs = series.windows(2).map(|w| per_x(s, w[0], w[1], 1.0));
            pairs.collect::<Option<Vec<_>>>()?.into_iter().flatten().collect()
        }
        Claim::Gain { of, over, min } => {
            let (x, value) = best(&ratios(s, of, over)?)?.clone();
            vec![Effect { label: format!("{of} / {over} @{x} (its best x)"), value, holds: min }]
        }
        Claim::Drop { series, min } | Claim::Growth { series, min } => {
            let points = s.get(series)?;
            let (top, end) = match claim {
                Claim::Drop { .. } => (best(points)?, points.last()?),
                _ => (best(points)?, points.first()?),
            };
            // A point over itself is exactly 1, whatever its spread.
            let value = if top.0 == end.0 { Spread::of(vec![1.0]) } else { top.1.over(end.1) };
            let label = format!("{series} @{} (its best x) / @{}", top.0, end.0);
            vec![Effect { label, value, holds: min }]
        }
        Claim::Plateau { mid, floor } => {
            let mut out = Vec::new();
            for (name, points) in &s.0 {
                let (lx, last) = points.last()?;
                for &m in mid {
                    let value = at(points, m)?.over(*last);
                    out.push(Effect { label: format!("{name} @{m} / @{lx}"), value, holds: floor });
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

/// Reads `<dir>/<fig.id>.tsv` and folds the repeats of every declared
/// point into its spread. `Err` says why the file is not a measurement
/// of `fig`: unreadable, a row with failed requests, a declared point
/// with fewer than [`REPEATS`] rows.
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
    let (series, x, rate, failed) =
        (col("series")?, col("x")?, col(column)?, col("failed_requests")?);
    let mut samples = Vec::new();
    for line in lines {
        let f: Vec<&str> = line.split('\t').collect();
        let bad = || format!("{}: malformed row {line:?}", path.display());
        let last = series.max(x).max(rate).max(failed);
        if f.len() <= last {
            return Err(bad());
        }
        if f[failed] != "0" {
            return Err(format!("{} @{}: {} failed produce requests", f[series], f[x], f[failed]));
        }
        samples.push((f[series], f[x], f[rate].parse::<f64>().map_err(|_| bad())?));
    }
    let mut out: Vec<(String, Points)> = Vec::new();
    for p in &fig.points {
        let v: Vec<f64> =
            samples.iter().filter(|s| s.0 == p.series && s.1 == p.x).map(|s| s.2).collect();
        if v.len() < REPEATS {
            return Err(format!("{} @{}: {} of {REPEATS} repeats", p.series, p.x, v.len()));
        }
        let i = out.iter().position(|(n, _)| *n == p.series).unwrap_or_else(|| {
            out.push((p.series.clone(), Vec::new()));
            out.len() - 1
        });
        out[i].1.push((p.x.clone(), Spread::of(v)));
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
            let part = |e: &Effect| format!("{} = {}", e.label, e.value);
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

    /// A series measured at x = "1", "2", …, each median with a relative
    /// min–max of ±`spread`.
    fn line(name: &str, mids: &[f64], spread: f64) -> (String, Points) {
        let point = |(i, &m): (usize, &f64)| {
            ((i + 1).to_string(), Spread { lo: m * (1.0 - spread), mid: m, hi: m * (1.0 + spread) })
        };
        (name.to_string(), mids.iter().enumerate().map(point).collect())
    }

    /// The verdict of `claim` on series "a" (and "b", if given) with `spread`.
    fn on(claim: Claim, a: &[f64], b: &[f64], spread: f64) -> Verdict {
        verdict(&claim, &Series(vec![line("a", a, spread), line("b", b, spread)]))
    }

    #[test]
    fn median_and_spread_of_repeats() {
        assert_eq!(Spread::of(vec![3.0, 1.0, 2.0]), Spread { lo: 1.0, mid: 2.0, hi: 3.0 });
        assert_eq!(Spread::of(vec![4.0, 1.0]), Spread { lo: 1.0, mid: 2.5, hi: 4.0 });
    }

    #[test]
    fn ratio_claim() {
        let floor = Claim::Ratio { num: "a", den: "b", floor: 1.5, grows: None };
        assert_eq!(on(floor, &[2.0, 3.0], &[1.0, 1.0], 0.02), Holds);
        assert_eq!(on(floor, &[1.2, 1.3], &[1.0, 1.0], 0.02), Attenuated);
        assert_eq!(on(floor, &[2.0, 0.5], &[1.0, 1.0], 0.02), NotReproduced);
        assert_eq!(on(floor, &[2.0, 1.5], &[1.0, 1.0], 0.1), Unresolved);
        let grows = Claim::Ratio { num: "a", den: "b", floor: 1.0, grows: Some(1.2) };
        assert_eq!(on(grows, &[2.0, 3.0], &[1.0, 1.0], 0.02), Holds);
        assert_eq!(on(grows, &[2.0, 2.2], &[1.0, 1.0], 0.01), Attenuated);
        assert_eq!(on(grows, &[3.0, 2.0], &[1.0, 1.0], 0.02), NotReproduced);
        assert_eq!(on(grows, &[2.0, 2.4], &[1.0, 1.0], 0.1), Unresolved);
    }

    #[test]
    fn ordering_claim() {
        let claim = Claim::Ordering { series: &["a", "b"] };
        assert_eq!(on(claim, &[3.0, 2.0], &[2.0, 1.0], 0.02), Holds);
        assert_eq!(on(claim, &[3.0, 1.0], &[2.0, 2.0], 0.02), NotReproduced);
        assert_eq!(on(claim, &[3.0, 1.05], &[2.0, 1.0], 0.1), Unresolved);
    }

    #[test]
    fn gain_claim() {
        let claim = Claim::Gain { of: "a", over: "b", min: 1.15 };
        assert_eq!(on(claim, &[1.0, 1.3], &[1.0, 1.0], 0.02), Holds);
        assert_eq!(on(claim, &[1.05, 1.08], &[1.0, 1.0], 0.01), Attenuated);
        assert_eq!(on(claim, &[0.9, 0.8], &[1.0, 1.0], 0.02), NotReproduced);
        assert_eq!(on(claim, &[1.1, 1.15], &[1.0, 1.0], 0.1), Unresolved);
    }

    #[test]
    fn drop_claim() {
        let claim = Claim::Drop { series: "a", min: 1.33 };
        assert_eq!(on(claim, &[1.0, 1.1, 0.6], &[], 0.02), Holds);
        assert_eq!(on(claim, &[1.0, 1.1, 0.95], &[], 0.01), Attenuated);
        // Best at its last x: no drop, however wide the spread.
        assert_eq!(on(claim, &[0.8, 0.9, 1.0], &[], 0.2), NotReproduced);
        assert_eq!(on(claim, &[1.0, 1.02, 1.0], &[], 0.05), Unresolved);
    }

    #[test]
    fn growth_claim() {
        let claim = Claim::Growth { series: "a", min: 1.3 };
        assert_eq!(on(claim, &[0.5, 0.8, 1.0], &[], 0.02), Holds);
        assert_eq!(on(claim, &[1.0, 1.1, 1.15], &[], 0.01), Attenuated);
        assert_eq!(on(claim, &[1.0, 0.9, 0.8], &[], 0.2), NotReproduced);
        assert_eq!(on(claim, &[1.0, 1.2, 1.3], &[], 0.1), Unresolved);
    }

    #[test]
    fn plateau_claim() {
        let claim = Claim::Plateau { mid: &["2", "3"], floor: 0.9 };
        let flat = [1.0, 1.0, 1.0, 1.0];
        assert_eq!(on(claim, &[1.0, 1.1, 1.05, 1.0], &flat, 0.02), Holds);
        assert_eq!(on(claim, &[1.0, 0.5, 1.05, 1.0], &flat, 0.02), NotReproduced);
        assert_eq!(on(claim, &[1.0, 0.92, 0.95, 1.0], &flat, 0.05), Unresolved);
    }

    #[test]
    fn a_claim_about_an_unmeasured_series_or_x_is_invalid() {
        let ratio = Claim::Ratio { num: "a", den: "c", floor: 1.0, grows: None };
        assert_eq!(on(ratio, &[1.0], &[1.0], 0.0), Invalid);
        let ratio = Claim::Ratio { num: "a", den: "b", floor: 1.0, grows: None };
        assert_eq!(on(ratio, &[1.0, 1.0], &[1.0], 0.0), Invalid, "b has no x = 2");
        assert_eq!(on(Claim::Plateau { mid: &["9"], floor: 0.9 }, &[1.0], &[1.0], 0.0), Invalid);
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
