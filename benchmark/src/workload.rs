//! The four workloads and the round that runs one of them.
//!
//! A run is a few *rounds*. Each round boots a fresh cluster (timed:
//! `setup_s`), warms up, measures, reads everything back and checks it,
//! and tears the cluster down. A closed-loop round ends once a fixed
//! number of records is acknowledged, however fast that went: the
//! program never trims its logs, and in this sandbox memory beyond the
//! ~1.5 GB the hypervisor keeps backed costs seconds per GB to touch,
//! so a round must stay below that whatever the throughput (README,
//! "Rounds"). Rounds also give several set-ups per run to take a median
//! of.
//!
//! Threads: the load generator is at most two threads (producer and
//! consumer roles below). The main thread only wakes every 5 ms to read
//! counters, and records them at the quarter-second window edges.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use crate::adapter::{
    ClientNode, Cluster, ClusterShape, Consumer, Producer, RegistrySnapshot, Result, StreamId,
};
use crate::clock::{now_ns, process_cpu_us, sleep_until, vm_hwm_mb};
use crate::loadgen::{Generator, Inputs};
use crate::spans::{Recorder, Span};
use crate::verify::Checker;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ConsumerRole {
    /// No consumer runs beside the producers; the data is read back and
    /// checked after they stop.
    None,
    /// One consumer thread tails the streams while the producer runs.
    Tail,
    /// One consumer thread re-reads the whole log from
    /// `SlotCursor::START` in repeated passes.
    Catchup,
}

/// How the producer threads offer load.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Load {
    /// Closed loop: a producer thread sends its next burst only while
    /// fewer than `window` of its records are unacknowledged. Without a
    /// window a generator thread runs ahead of the cluster by an amount
    /// that differs from run to run, and the backlog (so the record age,
    /// so the throughput) with it; the values are the largest powers of
    /// two at which ingest rate and age, tail included, repeated within
    /// a tenth (README, "What was tried"). The round ends when `quota`
    /// records are acknowledged, warm-up included.
    Closed { window: u64, quota: u64 },
    /// Open loop at `rate` records/s per producer thread; the round runs
    /// its full time.
    Paced { rate: u64 },
}

#[derive(Clone, Copy, Debug)]
pub struct Spec {
    pub name: &'static str,
    pub brokers: u32,
    pub tcp: bool,
    pub streams: u32,
    pub chunk_size: usize,
    pub factor: u32,
    /// Producer threads.
    pub producers: u32,
    pub load: Load,
    pub consumer: ConsumerRole,
    /// Records ingested during set-up, before the clock starts.
    pub preload: u64,
    /// `peak_rss_mb` is the peak resident set at the moment this many
    /// records of the first round have been acknowledged — a fixed
    /// amount of work, so that ingesting faster does not read as using
    /// more memory.
    pub rss_mark: u64,
}

impl Spec {
    pub fn transport(&self) -> &'static str {
        if self.tcp {
            "loopback-tcp"
        } else {
            "in-memory"
        }
    }

    pub fn loadgen_threads(&self) -> u32 {
        self.producers + u32::from(self.consumer != ConsumerRole::None)
    }
}

pub const WORKLOADS: [Spec; 4] = [
    Spec {
        name: "ingest-small-r3",
        brokers: 3,
        tcp: false,
        streams: 64,
        chunk_size: 1024,
        factor: 3,
        producers: 2,
        load: Load::Closed {
            window: 16_384,
            quota: 3_000_000,
        },
        consumer: ConsumerRole::None,
        preload: 0,
        rss_mark: 2_000_000,
    },
    Spec {
        name: "ingest-large-r1",
        brokers: 2,
        tcp: false,
        streams: 8,
        chunk_size: 16 * 1024,
        factor: 1,
        producers: 2,
        load: Load::Closed {
            window: 4_096,
            quota: 4_500_000,
        },
        consumer: ConsumerRole::None,
        preload: 0,
        rss_mark: 3_000_000,
    },
    Spec {
        name: "tail-paced-r3-tcp",
        brokers: 3,
        tcp: true,
        streams: 16,
        chunk_size: 1024,
        factor: 3,
        producers: 1,
        load: Load::Paced { rate: 100_000 },
        consumer: ConsumerRole::Tail,
        preload: 0,
        rss_mark: 300_000,
    },
    Spec {
        name: "catchup-read",
        brokers: 2,
        tcp: false,
        streams: 64,
        chunk_size: 1024,
        factor: 1,
        producers: 1,
        load: Load::Paced { rate: 20_000 },
        consumer: ConsumerRole::Catchup,
        preload: 2_000_000,
        rss_mark: 60_000,
    },
];

/// Length of one measurement window.
pub const WINDOW_NS: u64 = 250_000_000;
/// Untimed head of every round.
pub const WARMUP_NS: u64 = 250_000_000;
/// Records per `send` burst of a closed-loop producer; also how often it
/// looks at the clock.
const BURST: u64 = 64;

/// The round's timetable on the benchmark clock. Threads sort their
/// samples into windows by it; the only other coordination is `end`,
/// which the sampler pulls in when a closed-loop round has acknowledged
/// its quota of records.
struct Timetable {
    start: u64,
    measure: u64,
    end: AtomicU64,
}

impl Timetable {
    fn over(&self, now: u64) -> bool {
        now >= self.end.load(Ordering::Relaxed)
    }

    fn window(&self, t: u64) -> Option<usize> {
        (t >= self.measure && !self.over(t)).then(|| ((t - self.measure) / WINDOW_NS) as usize)
    }
}

/// Pushes `value` into window `w`, growing the list as windows go by.
fn push_sample(windows: &mut Vec<Vec<u64>>, w: usize, value: u64) {
    if windows.len() <= w {
        windows.resize_with(w + 1, Vec::new);
    }
    windows[w].push(value);
}

/// Counters read by the sampler at one window edge.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Edge {
    pub t_ns: u64,
    /// Records acknowledged to the producers so far.
    pub acked: u64,
    /// Records delivered to the consumer thread so far.
    pub consumed: u64,
    /// Process CPU so far.
    pub cpu_us: u64,
}

/// What one round measured.
#[derive(Default)]
pub struct Round {
    pub setup_s: f64,
    /// One entry per window edge; `n` edges bound `n - 1` full windows.
    /// A closed-loop round that reaches its quota mid-window drops that
    /// last partial window.
    pub edges: Vec<Edge>,
    /// Records/s of the read-back pass, where one ran.
    pub readback_rec_s: Option<f64>,
    /// Record ages in ns, one vector per full window.
    pub age_windows: Vec<Vec<u64>>,
    pub rss_mark_mb: Option<f64>,
    /// Peak resident set of the round's process when the round ended.
    pub hwm_mb: f64,
    pub sent: u64,
    pub acked: u64,
    /// Records read back in order from chunks with good checksums.
    pub good: u64,
    pub bad: u64,
    pub throttles: u64,
    /// How late each burst of a paced producer went out.
    pub late_ns: Vec<u64>,
    /// Sent minus consumed at the last window edge (tailing consumer).
    pub backlog_end: u64,
    pub flush_ns: u64,
    /// Records, chunks and chunk bytes taken out of consumers over the
    /// whole round, every pass and the read-back included (not sent
    /// through the pipe).
    pub polled_records: u64,
    pub polled_chunks: u64,
    pub polled_bytes: u64,
    pub spans: Vec<Span>,
    /// Registry delta between the first and last edge (traced rounds).
    pub registry: Option<RegistrySnapshot>,
}

impl Round {
    pub fn measured_ns(&self) -> u64 {
        match (self.edges.first(), self.edges.last()) {
            (Some(a), Some(b)) => b.t_ns - a.t_ns,
            _ => 0,
        }
    }

    /// The round as text, one `key values..` line per field, for the
    /// pipe between a round's own process and the run that started it.
    /// Spans and the registry delta stay behind: only traced rounds have
    /// them, and those run in the reporting process.
    pub fn to_text(&self) -> String {
        fn join(values: impl Iterator<Item = u64>) -> String {
            values.map(|v| v.to_string()).collect::<Vec<_>>().join(" ")
        }
        let mut out = format!(
            "scalars {} {} {} {} {} {} {} {} {} {} {}\n",
            self.setup_s,
            self.readback_rec_s.unwrap_or(-1.0),
            self.rss_mark_mb.unwrap_or(-1.0),
            self.hwm_mb,
            self.sent,
            self.acked,
            self.good,
            self.bad,
            self.throttles,
            self.backlog_end,
            self.flush_ns,
        );
        for e in &self.edges {
            out += &format!("edge {} {} {} {}\n", e.t_ns, e.acked, e.consumed, e.cpu_us);
        }
        for w in &self.age_windows {
            out += &format!("ages {}\n", join(w.iter().copied()));
        }
        out += &format!("late {}\n", join(self.late_ns.iter().copied()));
        out
    }

    pub fn from_text(text: &str) -> Option<Round> {
        let mut round = Round::default();
        for line in text.lines() {
            let (key, rest) = line.split_once(' ').unwrap_or((line, ""));
            let ints = || {
                rest.split_whitespace()
                    .map(|v| v.parse::<u64>().ok())
                    .collect::<Option<Vec<u64>>>()
            };
            match key {
                "scalars" => {
                    let f: Vec<&str> = rest.split_whitespace().collect();
                    let int = |i: usize| f.get(i)?.parse::<u64>().ok();
                    let float = |i: usize| f.get(i)?.parse::<f64>().ok();
                    round.setup_s = float(0)?;
                    round.readback_rec_s = Some(float(1)?).filter(|v| *v >= 0.0);
                    round.rss_mark_mb = Some(float(2)?).filter(|v| *v >= 0.0);
                    round.hwm_mb = float(3)?;
                    round.sent = int(4)?;
                    round.acked = int(5)?;
                    round.good = int(6)?;
                    round.bad = int(7)?;
                    round.throttles = int(8)?;
                    round.backlog_end = int(9)?;
                    round.flush_ns = int(10)?;
                }
                "edge" => match ints()?[..] {
                    [t_ns, acked, consumed, cpu_us] => round.edges.push(Edge {
                        t_ns,
                        acked,
                        consumed,
                        cpu_us,
                    }),
                    _ => return None,
                },
                "ages" => round.age_windows.push(ints()?),
                "late" => round.late_ns = ints()?,
                _ => return None,
            }
        }
        Some(round)
    }
}

struct ProducerOut {
    sent: u64,
    ages: Vec<Vec<u64>>,
    late_ns: Vec<u64>,
    flush_ns: u64,
    spans: Vec<Span>,
}

#[derive(Default)]
struct ConsumerOut {
    ages: Vec<Vec<u64>>,
    good: u64,
    bad: u64,
    chunks: u64,
    bytes: u64,
    spans: Vec<Span>,
}

/// Progress counters the threads publish for the sampler.
#[derive(Default)]
struct Progress {
    sent: AtomicU64,
    consumed: AtomicU64,
    /// Set once the producers have flushed: how many good-or-bad records
    /// the tailing consumer must have seen before it may stop.
    consume_target: AtomicU64,
}

/// Runs one round of `spec`: at most `max_measure_ns` of measurement
/// after [`WARMUP_NS`] of warm-up, less if the round's record quota is
/// acknowledged first. `traced` turns the program's observability on
/// and records benchmark-side spans.
pub fn run_round(spec: &Spec, seed: u64, max_measure_ns: u64, traced: bool) -> Result<Round> {
    let mut round = Round::default();
    let inputs = Inputs::new(seed, spec.streams);

    // ---- set-up: boot, create streams, connect clients, preload -------
    let setup_start = now_ns();
    let cluster = Cluster::start(ClusterShape {
        brokers: spec.brokers,
        tcp: spec.tcp,
        streams: spec.streams,
        chunk_size: spec.chunk_size,
        factor: spec.factor,
        observability: traced,
    })?;
    let streams: Vec<StreamId> = cluster.streams().to_vec();
    let producer_nodes: Vec<ClientNode> =
        (0..spec.producers).map(|_| cluster.client_node()).collect();
    let producers: Vec<Producer> = producer_nodes
        .iter()
        .enumerate()
        .map(|(i, node)| node.producer(i as u32))
        .collect::<Result<_>>()?;
    let consumer_node = cluster.client_node();
    if spec.preload > 0 {
        let node = cluster.client_node();
        let producer = node.producer(100)?;
        let mut gen = Generator::new(&inputs, &producer, &streams, 100 * 7919);
        for _ in 0..spec.preload {
            gen.send(0)?;
        }
        producer.close()?;
    }
    round.setup_s = (now_ns() - setup_start) as f64 / 1e9;

    // ---- warm-up and measurement --------------------------------------
    let start = now_ns() + 1_000_000;
    let measure = start + WARMUP_NS;
    let times = Timetable {
        start,
        measure,
        end: AtomicU64::new(measure + max_measure_ns),
    };
    let progress = Progress {
        consume_target: AtomicU64::new(u64::MAX),
        ..Progress::default()
    };
    let acked_total = || producers.iter().map(|p| p.metrics().items()).sum::<u64>();

    let (producer_outs, consumer_out) = std::thread::scope(|scope| -> Result<_> {
        let producer_threads: Vec<_> = producers
            .iter()
            .enumerate()
            .map(|(i, producer)| {
                let (times, inputs, streams, progress) = (&times, &inputs, &streams, &progress);
                scope.spawn(move || {
                    produce(spec, times, inputs, producer, streams, i, progress, traced)
                })
            })
            .collect();
        let consumer_thread = match spec.consumer {
            ConsumerRole::None => None,
            ConsumerRole::Tail => {
                let (times, node, progress) = (&times, &consumer_node, &progress);
                Some(scope.spawn(move || tail(times, node, progress, traced)))
            }
            ConsumerRole::Catchup => {
                let (times, node, progress, producers) =
                    (&times, &consumer_node, &progress, &producers);
                Some(scope.spawn(move || catchup(spec, times, node, producers, progress, traced)))
            }
        };

        // The sampler: counters at each window edge, the peak resident
        // set when the mark is crossed, and the end of a round that has
        // acknowledged its quota.
        let mut registry_before = None;
        let mut next_edge = times.measure;
        loop {
            let now = now_ns();
            let acked = acked_total();
            if round.rss_mark_mb.is_none() && acked >= spec.rss_mark {
                round.rss_mark_mb = Some(vm_hwm_mb());
            }
            if matches!(spec.load, Load::Closed { quota, .. } if acked >= quota) {
                times.end.fetch_min(now, Ordering::Relaxed);
            }
            if now >= next_edge && next_edge <= times.end.load(Ordering::Relaxed) {
                let consumed = progress.consumed.load(Ordering::Relaxed);
                round.edges.push(Edge {
                    t_ns: now,
                    acked,
                    consumed,
                    cpu_us: process_cpu_us(),
                });
                round.backlog_end = progress
                    .sent
                    .load(Ordering::Relaxed)
                    .saturating_sub(consumed);
                if traced {
                    let snap = cluster.snapshot();
                    match &registry_before {
                        None => registry_before = Some(snap),
                        Some(before) => round.registry = Some(snap.delta_since(before)),
                    }
                }
                next_edge += WINDOW_NS;
            }
            if times.over(now) {
                break;
            }
            sleep_until(next_edge.min(now + 5_000_000));
        }

        let outs: Vec<Result<ProducerOut>> = producer_threads
            .into_iter()
            .map(|t| t.join().expect("producer thread panicked"))
            .collect();
        // Producers have flushed (or failed): everything acknowledged is
        // now fixed, and the tailing consumer may stop once it has it.
        progress
            .consume_target
            .store(spec.preload + acked_total(), Ordering::Release);
        let consumer_out = match consumer_thread {
            Some(t) => t.join().expect("consumer thread panicked")?,
            None => ConsumerOut::default(),
        };
        Ok((outs.into_iter().collect::<Result<Vec<_>>>()?, consumer_out))
    })?;

    round.acked = acked_total();
    let full_windows = round.edges.len().saturating_sub(1);
    round.age_windows = vec![Vec::new(); full_windows];
    let ages_of_all = producer_outs
        .iter()
        .map(|o| &o.ages)
        .chain([&consumer_out.ages]);
    for ages in ages_of_all {
        for (w, samples) in ages.iter().take(full_windows).enumerate() {
            round.age_windows[w].extend(samples);
        }
    }
    for out in producer_outs {
        round.sent += out.sent;
        round.late_ns.extend(out.late_ns);
        round.flush_ns = round.flush_ns.max(out.flush_ns);
        round.spans.extend(out.spans);
    }
    round.polled_records = consumer_out.good + consumer_out.bad;
    round.polled_chunks = consumer_out.chunks;
    round.polled_bytes = consumer_out.bytes;
    round.spans.extend(consumer_out.spans);
    round.bad = consumer_out.bad;
    round.throttles = producers.iter().map(|p| p.throttles()).sum();

    // ---- read everything back and check it ----------------------------
    if spec.consumer == ConsumerRole::Tail {
        // The tailing consumer saw (and checked) every record itself.
        round.good = consumer_out.good;
    } else {
        let mut rec = Recorder::new(traced);
        let expected = spec.preload + round.acked;
        let (checker, rec_s) = read_back(&consumer_node, expected, &mut rec)?;
        round.good = checker.good.saturating_sub(spec.preload);
        round.bad += checker.bad;
        round.polled_records += checker.good + checker.bad;
        round.polled_chunks += checker.chunks;
        round.polled_bytes += checker.bytes;
        round.readback_rec_s = Some(rec_s);
        round.spans.extend(rec.into_spans());
    }
    round.hwm_mb = vm_hwm_mb();

    // ---- tear down ------------------------------------------------------
    for p in producers {
        p.close()?;
    }
    drop((producer_nodes, consumer_node));
    cluster.shutdown();
    Ok(round)
}

/// One producer thread, closed loop or paced.
///
/// Paced: record `i` is due at `start + i / rate`; whatever is due when
/// the thread wakes goes out as one burst, each record stamped with its
/// own due time, so a stall shows in the ages of the records behind it.
/// Where no consumer tails the streams, the record's age is taken when
/// the producer's acknowledged count first covers it.
#[allow(clippy::too_many_arguments)]
fn produce(
    spec: &Spec,
    times: &Timetable,
    inputs: &Inputs,
    producer: &Producer,
    streams: &[StreamId],
    index: usize,
    progress: &Progress,
    traced: bool,
) -> Result<ProducerOut> {
    let mut rec = Recorder::new(traced);
    let root = rec.start("loadgen.producer", 0, 0);
    let mut gen = Generator::new(inputs, producer, streams, index * 7919);
    let paced = matches!(spec.load, Load::Paced { .. });
    let ack_ages = spec.consumer != ConsumerRole::Tail;
    let mut ages: Vec<Vec<u64>> = Vec::new();
    let mut late_ns = Vec::new();
    // (records sent up to and including this burst, due time of its first record)
    let mut unacked: VecDeque<(u64, u64)> = VecDeque::new();
    let mut burst_no = 0u64;
    loop {
        let now = now_ns();
        if times.over(now) {
            break;
        }
        let (count, first_due, step) = match spec.load {
            Load::Closed { window, .. } if gen.sent - producer.metrics().items() >= window => {
                (0, now, 0)
            }
            Load::Closed { .. } => (BURST, now, 0),
            Load::Paced { rate } => {
                let iv = 1_000_000_000 / rate;
                let due_so_far = now.saturating_sub(times.start) / iv + 1;
                (
                    due_so_far.saturating_sub(gen.sent),
                    times.start + gen.sent * iv,
                    iv,
                )
            }
        };
        if count > 0 {
            if paced && times.window(now).is_some() {
                late_ns.push(now.saturating_sub(first_due));
            }
            burst_no += 1;
            let open = rec.start("client.send", root.id(), burst_no);
            for k in 0..count {
                gen.send(first_due + k * step)?;
            }
            rec.end(open);
            progress.sent.fetch_add(count, Ordering::Relaxed);
            if ack_ages {
                unacked.push_back((gen.sent, first_due));
            }
        }
        if ack_ages {
            let acked = producer.metrics().items();
            let now = now_ns();
            while unacked.front().is_some_and(|&(upto, _)| upto <= acked) {
                let (_, due) = unacked.pop_front().expect("front checked");
                if let Some(w) = times.window(now) {
                    push_sample(&mut ages, w, now.saturating_sub(due));
                }
            }
        }
        if paced {
            std::thread::sleep(Duration::from_micros(100));
        } else if count == 0 {
            std::thread::sleep(Duration::from_micros(50));
        }
    }
    let flush_start = now_ns();
    let open = rec.start("client.flush", root.id(), 0);
    producer.flush()?;
    rec.end(open);
    let flush_ns = now_ns() - flush_start;
    rec.end(root);
    Ok(ProducerOut {
        sent: gen.sent,
        ages,
        late_ns,
        flush_ns,
        spans: rec.into_spans(),
    })
}

/// Takes one batch from the consumer and checks it; returns false when
/// nothing arrived within the wait.
fn take_batch(
    consumer: &Consumer,
    checker: &mut Checker,
    rec: &mut Recorder,
    parent: u32,
    mut on_record: impl FnMut(u64, u64),
) -> bool {
    let open = rec.start("client.next_batch", parent, checker.chunks);
    let batch = consumer.next_batch(Duration::from_millis(20));
    rec.end(open);
    let Some(batch) = batch else { return false };
    let now = now_ns();
    let open = rec.start("wire.verify_batch", parent, checker.chunks);
    checker.check_batch(batch.stream, &batch.data, |due| on_record(now, due));
    rec.end(open);
    true
}

/// The tailing consumer thread: every record's age is "now − due" at the
/// moment its batch reaches this thread.
fn tail(
    times: &Timetable,
    node: &ClientNode,
    progress: &Progress,
    traced: bool,
) -> Result<ConsumerOut> {
    let mut rec = Recorder::new(traced);
    let root = rec.start("loadgen.consumer", 0, 0);
    let consumer = node.consumer(0)?;
    let mut out = ConsumerOut::default();
    let mut checker = Checker::default();
    let mut idle_since: Option<u64> = None;
    loop {
        let ages = &mut out.ages;
        let got = take_batch(&consumer, &mut checker, &mut rec, root.id(), |now, due| {
            if let Some(w) = times.window(now) {
                push_sample(ages, w, now.saturating_sub(due));
            }
        });
        progress
            .consumed
            .store(checker.good + checker.bad, Ordering::Relaxed);
        if got {
            idle_since = None;
        }
        let target = progress.consume_target.load(Ordering::Acquire);
        if checker.good + checker.bad >= target {
            break;
        }
        // The producers are done and nothing has arrived for 2 s: what
        // is missing will not come. The count mismatch reports it.
        if target != u64::MAX && !got {
            let since = *idle_since.get_or_insert_with(now_ns);
            if now_ns() - since > 2_000_000_000 {
                break;
            }
        }
    }
    consumer.close();
    rec.end(root);
    out.good = checker.good;
    out.bad = checker.bad;
    out.chunks = checker.chunks;
    out.bytes = checker.bytes;
    out.spans = rec.into_spans();
    Ok(out)
}

/// The catch-up consumer thread: pass after pass over the whole log from
/// the start, each with a fresh consumer, until the timetable ends. A
/// pass is over once it has delivered as many records as were
/// acknowledged when it began.
fn catchup(
    spec: &Spec,
    times: &Timetable,
    node: &ClientNode,
    producers: &[Producer],
    progress: &Progress,
    traced: bool,
) -> Result<ConsumerOut> {
    let mut rec = Recorder::new(traced);
    let root = rec.start("loadgen.consumer", 0, 0);
    let mut out = ConsumerOut::default();
    let mut pass = 0;
    while !times.over(now_ns()) {
        pass += 1;
        let target = spec.preload + producers.iter().map(|p| p.metrics().items()).sum::<u64>();
        let open = rec.start("client.consumer_new", root.id(), pass);
        let consumer = node.consumer(pass as u32)?;
        rec.end(open);
        let mut checker = Checker::default();
        while checker.good + checker.bad < target && !times.over(now_ns()) {
            let before = checker.good + checker.bad;
            take_batch(&consumer, &mut checker, &mut rec, root.id(), |_, _| {});
            progress
                .consumed
                .fetch_add(checker.good + checker.bad - before, Ordering::Relaxed);
        }
        consumer.close();
        out.good += checker.good;
        out.bad += checker.bad;
        out.chunks += checker.chunks;
        out.bytes += checker.bytes;
    }
    rec.end(root);
    out.spans = rec.into_spans();
    Ok(out)
}

/// Reads the whole log back from the start through a fresh consumer and
/// checks it. Stops at `expected` records, or when nothing has arrived
/// for a second (the count mismatch then reports what is missing).
/// Returns the checker and the records/s between the first and the last
/// tenth of the pass, which leaves the consumer's start-up and the
/// ragged end (slots running dry one by one) out of the rate.
fn read_back(node: &ClientNode, expected: u64, rec: &mut Recorder) -> Result<(Checker, f64)> {
    let root = rec.start("loadgen.read_back", 0, 0);
    let consumer = node.consumer(1_000_000)?;
    let mut checker = Checker::default();
    let mut last_data = now_ns();
    // (time, records) when the pass crossed 10 % and 90 % of `expected`.
    let (mut lower, mut upper) = (None, None);
    while checker.good + checker.bad < expected {
        if take_batch(&consumer, &mut checker, rec, root.id(), |_, _| {}) {
            last_data = now_ns();
            let seen = checker.good + checker.bad;
            if lower.is_none() && seen >= expected / 10 {
                lower = Some((last_data, seen));
            }
            if upper.is_none() && seen >= expected - expected / 10 {
                upper = Some((last_data, seen));
            }
        } else if now_ns() - last_data > 1_000_000_000 {
            break;
        }
    }
    consumer.close();
    rec.end(root);
    let rate = match (lower, upper) {
        (Some((t0, n0)), Some((t1, n1))) if t1 > t0 => (n1 - n0) as f64 * 1e9 / (t1 - t0) as f64,
        _ => 0.0,
    };
    Ok((checker, rate))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_round_survives_the_pipe() {
        let round = Round {
            setup_s: 0.25,
            edges: vec![
                Edge {
                    t_ns: 10,
                    acked: 1,
                    consumed: 2,
                    cpu_us: 3,
                },
                Edge {
                    t_ns: 20,
                    acked: 4,
                    consumed: 5,
                    cpu_us: 6,
                },
            ],
            readback_rec_s: Some(1234.5),
            age_windows: vec![vec![5, 6, 7], vec![]],
            rss_mark_mb: None,
            sent: 9,
            acked: 8,
            good: 7,
            bad: 1,
            late_ns: vec![100, 200],
            flush_ns: 77,
            hwm_mb: 512.5,
            ..Round::default()
        };
        let back = Round::from_text(&round.to_text()).expect("parses");
        assert_eq!(back.to_text(), round.to_text());
        assert_eq!(back.edges, round.edges);
        assert_eq!(back.age_windows, round.age_windows);
        assert_eq!(
            (back.rss_mark_mb, back.readback_rec_s),
            (None, Some(1234.5))
        );
        assert!(Round::from_text("edge 1 2").is_none());
        assert!(Round::from_text("bogus 1").is_none());
    }

    #[test]
    fn every_workload_can_replicate_on_its_brokers() {
        for w in &WORKLOADS {
            assert!(
                w.factor <= w.brokers,
                "{}: R{} on {} brokers",
                w.name,
                w.factor,
                w.brokers
            );
            assert!(
                w.loadgen_threads() <= 2,
                "{}: load generator is at most 2 threads",
                w.name
            );
            if let Load::Closed { quota, .. } = w.load {
                assert!(
                    w.rss_mark < quota,
                    "{}: the mark lies inside a round",
                    w.name
                );
            }
        }
    }
}
