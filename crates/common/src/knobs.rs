//! Every `KERA_*` environment variable the workspace reads: one table,
//! each row parsed once per process.
//!
//! A variable is here only because something in the repository sets it —
//! a script, a CI step, or a documented figure/inspect procedure; a value
//! nothing sets is a constant next to the code that uses it. Values are
//! unsigned integers (switches are `0`/`1`); an unset or unparsable
//! variable reads as the row's default. README.md lists the same rows,
//! and `crates/common/tests/knobs_documented.rs` keeps the two (and every
//! `KERA_*` name DESIGN.md and EXPERIMENTS.md mention) in step;
//! `scripts/ci.sh` refuses an `env::var("KERA_…")` anywhere else under
//! `crates/`.

use std::sync::OnceLock;

/// One environment variable.
pub struct Knob {
    pub name: &'static str,
    pub default: u64,
    pub doc: &'static str,
    value: OnceLock<u64>,
}

impl Knob {
    const fn new(name: &'static str, default: u64, doc: &'static str) -> Knob {
        Knob { name, default, doc, value: OnceLock::new() }
    }

    /// The variable's value; the environment is read on the first call.
    pub fn get(&self) -> u64 {
        *self.value.get_or_init(|| {
            std::env::var(self.name).ok().and_then(|v| v.trim().parse().ok()).unwrap_or(self.default)
        })
    }

    /// [`Knob::get`] for a switch.
    pub fn is_on(&self) -> bool {
        self.get() != 0
    }
}

pub static WARMUP_MS: Knob = Knob::new(
    "KERA_WARMUP_MS",
    750,
    "figure harness: warm-up before the measurement window, ms; any other value than the default sends the TSVs to results/tmp/",
);
pub static MEASURE_MS: Knob = Knob::new(
    "KERA_MEASURE_MS",
    2000,
    "figure harness: measurement window, ms; any other value than the default sends the TSVs to results/tmp/",
);
pub static IO_COST_NS: Knob = Knob::new(
    "KERA_IO_COST_NS",
    30_000,
    "figure harness: modelled cost of one synchronous storage write, ns; 0 disables the model",
);
pub static OBS: Knob = Knob::new(
    "KERA_OBS",
    1,
    "figure harness: 0 turns tracing and the flight recorder off (counters keep working)",
);
pub static COORD_REPLICAS: Knob = Knob::new(
    "KERA_COORD_REPLICAS",
    1,
    "figure harness: coordinator replicas; 3 runs any figure against the replicated metadata plane",
);
pub static FLIGHTREC: Knob = Knob::new(
    "KERA_FLIGHTREC",
    0,
    "clusters: 1 installs the panic hook that dumps every node's flight-recorder ring",
);
pub static WATCHDOG_MS: Knob = Knob::new(
    "KERA_WATCHDOG_MS",
    0,
    "KerA cluster: arms a per-node stall watchdog with this threshold, ms; 0 = none",
);

/// All rows, in README order.
pub static TABLE: [&Knob; 7] =
    [&WARMUP_MS, &MEASURE_MS, &IO_COST_NS, &OBS, &COORD_REPLICAS, &FLIGHTREC, &WATCHDOG_MS];
