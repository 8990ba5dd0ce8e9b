//! The traced run: one pass of a workload with harness spans and a recording
//! probe, then every layer timed from outside, through its public
//! functions, on the request and command tapes the probe captured.
//!
//! Spans inside `Simulator::step()` are a later change; here the harness
//! only wraps the calls it makes itself.

use std::cell::RefCell;
use std::collections::{HashMap, VecDeque};
use std::hint::black_box;
use std::path::PathBuf;
use std::rc::Rc;
use std::time::Instant;

use serde::Value;

use dramstack::cpu::{CoreModel, Hierarchy, Instr, InstrStream, VecStream};
use dramstack::dram::{Command, Cycle, CycleView, DeviceConfig, DramDevice, TimedCommand};
use dramstack::memctrl::{CtrlConfig, CtrlStats, MemoryController};
use dramstack::obs::Probe;
use dramstack::sim::replay::MemRequest;
use dramstack::sim::{JobSpec, SimReport, Simulator, SystemConfig, Telemetry, TelemetryConfig};
use dramstack::stacks::offline::stack_from_trace;
use dramstack::stacks::{LatComponent, StackSampler};
use dramstack::viz::{ascii, csv, svg};
use dramstack::workloads::{PatternKind, SyntheticPattern};

use crate::env::{self, Machine};
use crate::metrics::{LAYER_MAP, PER_LAYER};
use crate::serve_load;
use crate::spans::{self, Recorder, Span};
use crate::stats::percentile;
use crate::workloads::{
    check_outputs, conservation_err, construct, drive, generate, refresh_oracle_err_pct,
    report_digest, segment_floor, Drive, Inputs, Outputs, Scale, Source, Workload, SLICE_CYCLES,
};

/// How much work each isolation loop does: full size, or about 1/20 of it
/// for `smoke` and the unit tests.
#[derive(Debug, Clone, Copy)]
struct Sizes {
    /// The per-cycle loops replay at most this many cycles of a tape (all
    /// of `stream_rd_8c`, the first twentieth of `chase_1c`).
    loop_cycles: Cycle,
    /// Horizon of the with/without runs behind the `*_ratio` metrics.
    ratio_cycles: Cycle,
    /// Instructions per core kept for the `cpu` loops and the ratio runs.
    prefix_instrs: usize,
    /// Memory accesses replayed through `Hierarchy::access`.
    hier_accesses: usize,
    /// Core cycles of the `CoreModel::tick` loop.
    tick_cycles: u64,
    /// `InstrStream` pulls of the `workloads` loop.
    synth_pulls: u32,
}

impl Sizes {
    fn of(scale: Scale) -> Sizes {
        match scale {
            Scale::Full => Sizes {
                loop_cycles: 1_200_000,
                ratio_cycles: 240_000,
                prefix_instrs: 300_000,
                hier_accesses: 400_000,
                tick_cycles: 200_000,
                synth_pulls: 1_000_000,
            },
            Scale::Smoke => Sizes {
                loop_cycles: 60_000,
                ratio_cycles: 12_000,
                prefix_instrs: 15_000,
                hier_accesses: 20_000,
                tick_cycles: 10_000,
                synth_pulls: 50_000,
            },
        }
    }
}

/// Latency of the memory stub behind the `CoreModel::tick` loop, core cycles.
const STUB_LATENCY: u64 = 60;

/// Every isolation loop is repeated at least this often (best repeat
/// reported), and more while the time budget lasts.
const MIN_REPS: usize = 2;
const MAX_REPS: usize = 9;

// ---------------------------------------------------------------------------
// Tapes
// ---------------------------------------------------------------------------

/// What the recording probe captured on one channel.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct Tapes {
    /// `(address, is_write)` by request id, from `request_accepted`.
    accepted: Vec<(u64, bool)>,
    /// Requests in arrival order, from `request_arrival`.
    pub requests: Vec<MemRequest>,
    /// Commands in issue order, from `command_issued`.
    pub commands: Vec<TimedCommand>,
}

/// Records the request and command tapes. It asks for no per-cycle `tick`,
/// so the skip engines stay on and the traced pass runs the same code path
/// as the untraced one.
#[derive(Debug)]
struct TapeProbe(Rc<RefCell<Tapes>>);

impl Probe for TapeProbe {
    fn request_accepted(&mut self, id: u64, phys: u64, is_write: bool) {
        let tapes = &mut *self.0.borrow_mut();
        debug_assert_eq!(id as usize, tapes.accepted.len(), "ids count up from 0");
        tapes.accepted.push((phys, is_write));
    }

    fn request_arrival(&mut self, id: u64, now: Cycle) {
        let tapes = &mut *self.0.borrow_mut();
        if let Some(&(addr, write)) = tapes.accepted.get(id as usize) {
            tapes.requests.push(MemRequest {
                at: now,
                write,
                addr,
            });
        }
    }

    fn command_issued(&mut self, now: Cycle, cmd: Command, _flat_bank: usize) {
        self.0
            .borrow_mut()
            .commands
            .push(TimedCommand::new(now, cmd));
    }

    fn wants_ticks(&self) -> bool {
        false
    }
}

// ---------------------------------------------------------------------------
// Isolation loops: each returns the host seconds of one repeat
// ---------------------------------------------------------------------------

/// `dram` alone: the command tape through `advance`/`issue`. With
/// `queries`, the four `earliest_*` of the next command's bank are asked at
/// the four cycles up to its issue first (memoized or not), the way a
/// controller keeps asking until a command is ready.
fn dram_loop(
    cmds: &[TimedCommand],
    cfg: DeviceConfig,
    queries: Option<bool>,
) -> Result<f64, String> {
    let mut dev = DramDevice::new(cfg);
    dev.set_memoize(queries.unwrap_or(true));
    let t = Instant::now();
    for c in cmds {
        dev.advance(c.at);
        if queries.is_some() {
            for back in (0..QUERY_CYCLES).rev() {
                let now = c.at.saturating_sub(back);
                black_box(dev.earliest_activate(c.cmd.bank, now));
                black_box(dev.earliest_precharge(c.cmd.bank, now));
                black_box(dev.earliest_read(c.cmd.bank, now));
                black_box(dev.earliest_write(c.cmd.bank, now));
            }
        }
        dev.issue(c.cmd, c.at)
            .map_err(|e| format!("device rejected tape command `{}`: {e}", c))?;
    }
    black_box(dev.stats());
    Ok(t.elapsed().as_secs_f64())
}

/// Cycles before each tape command at which [`dram_loop`] queries.
const QUERY_CYCLES: Cycle = 4;

/// `memctrl` from the request tape: the loop `sim::replay::replay_requests`
/// runs, without the sampler. Returns the seconds, the requests fed and the
/// controller's final statistics.
fn memctrl_loop(
    reqs: &[MemRequest],
    cfg: &CtrlConfig,
    end: Cycle,
    engine: bool,
) -> (f64, usize, CtrlStats) {
    let mut ctrl = MemoryController::new(cfg.clone());
    ctrl.set_busy_engine(engine);
    let mut view = CycleView::idle(ctrl.total_banks());
    let mut next = 0;
    let t = Instant::now();
    for now in 0..end {
        next = feed(&mut ctrl, reqs, next, now);
        ctrl.tick(now, &mut view);
        for c in ctrl.drain_completions() {
            black_box(c);
        }
    }
    (t.elapsed().as_secs_f64(), next, ctrl.stats())
}

/// Enqueues every due request in tape order, stalling on a full queue.
fn feed(ctrl: &mut MemoryController, reqs: &[MemRequest], mut next: usize, now: Cycle) -> usize {
    while let Some(r) = reqs.get(next).filter(|r| r.at <= now) {
        if r.write && ctrl.can_accept_write() {
            ctrl.enqueue_write(r.addr);
        } else if !r.write && ctrl.can_accept_read() {
            ctrl.enqueue_read(r.addr, next as u64);
        } else {
            break;
        }
        next += 1;
    }
    next
}

/// `core` on top of `memctrl`: the same replay, untimed, with the harness
/// owning the `CycleView`; views are copied into a batch and only
/// `StackSampler::account` over a full batch is timed, so the clock is read
/// twice per 4096 cycles, not twice per cycle. Returns seconds per cycle.
fn account_loop(reqs: &[MemRequest], cfg: &CtrlConfig, end: Cycle, sample_period: Cycle) -> f64 {
    const BATCH: usize = 4096;
    let mut ctrl = MemoryController::new(cfg.clone());
    let banks = ctrl.total_banks();
    let mut sampler = StackSampler::new(
        banks,
        cfg.device.peak_bandwidth_gbps(),
        cfg.device.timing.cycle_ns(),
        sample_period,
    );
    let mut view = CycleView::idle(banks);
    let mut batch = vec![CycleView::idle(banks); BATCH];
    let (mut next, mut filled, mut timed_cycles, mut secs) = (0, 0, 0u64, 0.0);
    for now in 0..end {
        next = feed(&mut ctrl, reqs, next, now);
        ctrl.tick(now, &mut view);
        for c in ctrl.drain_completions() {
            sampler.add_read(&c.breakdown);
        }
        batch[filled].clone_from(&view);
        filled += 1;
        if filled == BATCH {
            let t = Instant::now();
            for v in &batch {
                sampler.account(v);
            }
            secs += t.elapsed().as_secs_f64();
            timed_cycles += BATCH as u64;
            filled = 0;
        }
    }
    black_box(sampler.samples().len());
    if timed_cycles == 0 {
        0.0
    } else {
        secs / timed_cycles as f64
    }
}

/// Fresh instruction streams over a source (the trace prefix is cloned).
fn streams(source: &Source, n_cores: usize) -> Vec<Box<dyn InstrStream>> {
    match source {
        Source::Synthetic(p) => (0..n_cores)
            .map(|c| Box::new(p.stream_for_core(c, n_cores)) as Box<dyn InstrStream>)
            .collect(),
        Source::Traces(traces) => traces
            .iter()
            .map(|t| Box::new(VecStream::new(t.clone())) as Box<dyn InstrStream>)
            .collect(),
    }
}

/// `cpu::Hierarchy` alone: the workload's first memory accesses, cores
/// interleaved, every outbound read completed at once. Returns seconds per
/// access.
fn hier_loop(cfg: &SystemConfig, source: &Source, accesses: usize) -> f64 {
    let mut tape: Vec<(usize, u64, bool)> = Vec::with_capacity(accesses);
    let mut streams = streams(source, cfg.n_cores);
    let mut live = cfg.n_cores;
    while tape.len() < accesses && live > 0 {
        live = 0;
        for (core, s) in streams.iter_mut().enumerate() {
            // One memory access per core and turn; other instructions skipped.
            while let Some(i) = s.next_instr() {
                let access = match i {
                    Instr::Load { addr } | Instr::ChainLoad { addr, .. } => Some((addr, false)),
                    Instr::Store { addr } => Some((addr, true)),
                    _ => None,
                };
                if let Some((addr, write)) = access {
                    tape.push((core, addr, write));
                    live += 1;
                    break;
                }
            }
        }
    }
    if tape.is_empty() {
        return 0.0;
    }
    let mut hier = Hierarchy::new(cfg.n_cores, cfg.hierarchy);
    let t = Instant::now();
    for (now, &(core, addr, write)) in tape.iter().enumerate() {
        black_box(hier.access(core, addr, write, now as u64));
        while let Some(r) = hier.pop_read() {
            black_box(hier.complete_read(r.line));
        }
        while let Some(line) = hier.pop_write() {
            black_box(line);
        }
    }
    t.elapsed().as_secs_f64() / tape.len() as f64
}

/// `cpu::CoreModel` alone: every core ticked in lockstep against a memory
/// stub the harness drives (each outbound read completes [`STUB_LATENCY`]
/// core cycles later, writes vanish). Returns seconds per `tick`.
fn core_tick_loop(cfg: &SystemConfig, source: &Source, cycles: u64) -> f64 {
    let mut hier = Hierarchy::new(cfg.n_cores, cfg.hierarchy);
    let mut cores: Vec<CoreModel> = (0..cfg.n_cores)
        .map(|i| CoreModel::new(i, cfg.core))
        .collect();
    let mut streams = streams(source, cfg.n_cores);
    let mut in_flight: VecDeque<(u64, u64)> = VecDeque::new();
    let mut ticks = 0u64;
    let t = Instant::now();
    for now in 0..cycles {
        while let Some(&(_, line)) = in_flight.front().filter(|&&(at, _)| at <= now) {
            in_flight.pop_front();
            for core in hier.complete_read(line) {
                cores[core].complete_line(line);
            }
        }
        for (core, stream) in cores.iter_mut().zip(&mut streams) {
            core.tick(stream.as_mut(), &mut hier, now);
        }
        ticks += cores.len() as u64;
        // As `Simulator` does: release a barrier every unfinished core is at.
        let active = cores.iter().filter(|c| !c.is_finished()).count();
        if active == 0 {
            break;
        }
        if cores.iter().filter(|c| c.at_barrier().is_some()).count() == active {
            for core in cores.iter_mut().filter(|c| c.at_barrier().is_some()) {
                core.release_barrier();
            }
        }
        while let Some(r) = hier.pop_read() {
            in_flight.push_back((now + STUB_LATENCY, r.line));
        }
        while hier.pop_write().is_some() {}
    }
    t.elapsed().as_secs_f64() / ticks.max(1) as f64
}

/// `workloads` with no consumer: seconds per `InstrStream` pull.
fn synth_loop(pattern: &SyntheticPattern, pulls: u32) -> f64 {
    let mut s = pattern.stream_for_core(0, 1);
    let t = Instant::now();
    for _ in 0..pulls {
        black_box(s.next_instr());
    }
    t.elapsed().as_secs_f64() / f64::from(pulls)
}

/// What a ratio run switches on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Variant {
    Plain,
    /// JSONL telemetry to `io::sink()`.
    Telemetry,
    /// Shadow auditor armed.
    Audit,
}

/// One run of `cycles` cycles of the workload's configuration, construction
/// untimed. Returns the seconds and the auditor's findings.
fn ratio_run(
    cfg: &SystemConfig,
    source: &Source,
    cycles: Cycle,
    variant: Variant,
) -> Result<(f64, u64), String> {
    let mut sim = construct(cfg.clone(), source.clone(), &mut Recorder::off());
    match variant {
        Variant::Telemetry => {
            let tel =
                Telemetry::new(TelemetryConfig::default()).with_jsonl(Box::new(std::io::sink()));
            sim.attach_telemetry(tel);
        }
        Variant::Audit => sim.set_audit(true),
        Variant::Plain => {}
    }
    let t = Instant::now();
    let out = drive(
        &mut sim,
        Drive::ForCycles(cycles),
        SLICE_CYCLES,
        &mut Recorder::off(),
    )?;
    let secs = t.elapsed().as_secs_f64();
    let audit = &out.report.audit;
    Ok((secs, audit.violations_total + audit.conservation_total))
}

/// `run_job` against a straight `run_for_us` of the same spec; `None` for
/// workloads no `JobSpec` can express. Returns `(run_job seconds,
/// run_for_us seconds)`, construction included in both.
fn run_job_pair(
    cfg: &SystemConfig,
    source: &Source,
    cycles: Cycle,
) -> Result<Option<(f64, f64)>, String> {
    let Source::Synthetic(p) = source else {
        return Ok(None);
    };
    let us = cycles as f64 * cfg.dram_cycle_ns() / 1000.0;
    let spec = JobSpec {
        pattern: match p.kind {
            PatternKind::Sequential => "seq",
            PatternKind::Random => "rand",
        }
        .to_string(),
        cores: cfg.n_cores,
        stores: p.store_fraction,
        us,
        ..JobSpec::default()
    };
    let t = Instant::now();
    let sliced = serve_load::run_spec(&spec)?;
    let sliced_s = t.elapsed().as_secs_f64();
    let (job_cfg, pattern) = spec.resolve()?;
    let t = Instant::now();
    let straight = Simulator::with_synthetic(job_cfg, pattern).run_for_us(us);
    let straight_s = t.elapsed().as_secs_f64();
    if sliced.strip_perf() != straight.strip_perf() {
        return Err("run_job and run_for_us reports differ".to_string());
    }
    Ok(Some((sliced_s, straight_s)))
}

/// ASCII, CSV and SVG of the final stacks and the through-time figure.
fn render_loop(cfg: &SystemConfig, report: &SimReport) -> f64 {
    let bw = [("run".to_string(), report.bandwidth_stack.clone())];
    let lat = [("run".to_string(), report.latency_stack)];
    let t = Instant::now();
    black_box(ascii::bandwidth_chart(&bw));
    black_box(ascii::latency_chart(&lat));
    black_box(ascii::through_time_strip(&report.samples, 8));
    black_box(csv::bandwidth_csv(&bw));
    black_box(csv::latency_csv(&lat));
    black_box(csv::samples_csv(&report.samples, cfg.dram_cycle_ns()));
    black_box(svg::bandwidth_figure("run", &bw));
    black_box(svg::latency_figure("run", &lat));
    black_box(svg::through_time_figure(
        "run",
        &report.samples,
        cfg.dram_cycle_ns(),
    ));
    t.elapsed().as_secs_f64()
}

/// Seconds per `Telemetry::ingest_window`, JSONL to `io::sink()`.
fn telemetry_loop(report: &SimReport) -> f64 {
    let mut tel = Telemetry::new(TelemetryConfig::default()).with_jsonl(Box::new(std::io::sink()));
    let t = Instant::now();
    for s in &report.samples {
        tel.ingest_window(s);
    }
    black_box(tel.windows());
    t.elapsed().as_secs_f64() / report.samples.len().max(1) as f64
}

// ---------------------------------------------------------------------------
// The table
// ---------------------------------------------------------------------------

/// The per-layer metrics of one workload.
#[derive(Debug, Default)]
pub struct LayerTable {
    pub workload: String,
    pub seed: u64,
    values: HashMap<&'static str, f64>,
    pub failures: Vec<String>,
    pub spans: Vec<Span>,
    pub digest: String,
}

impl LayerTable {
    fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            PER_LAYER.iter().any(|m| m.name == name),
            "{name} is not a per-layer metric"
        );
        self.values.insert(name, value);
    }

    /// The metric's value; 0 where the workload bypasses the layer.
    pub fn value(&self, name: &str) -> f64 {
        self.values.get(name).copied().unwrap_or(0.0)
    }
}

/// The best (smallest) seconds seen per loop across repeats.
#[derive(Debug, Default)]
struct Best(HashMap<&'static str, f64>);

impl Best {
    fn note(&mut self, key: &'static str, secs: f64) {
        let slot = self.0.entry(key).or_insert(f64::INFINITY);
        *slot = slot.min(secs);
    }

    fn get(&self, key: &str) -> f64 {
        self.0.get(key).copied().unwrap_or(0.0)
    }

    fn ratio(&self, num: &str, den: &str) -> f64 {
        match self.get(den) {
            d if d > 0.0 => self.get(num) / d,
            _ => 0.0,
        }
    }
}

fn share(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 / whole as f64
    }
}

/// Keeps the first `instrs` instructions of every trace.
fn prefix(source: &Source, instrs: usize) -> Source {
    match source {
        Source::Synthetic(p) => Source::Synthetic(*p),
        Source::Traces(traces) => Source::Traces(
            traces
                .iter()
                .map(|t| t[..t.len().min(instrs)].to_vec())
                .collect(),
        ),
    }
}

/// The simulator inputs behind a workload's layers: its own, or for
/// `serve_closed_2c` those of its second job spec (the daemon runs nothing
/// else below the `serve` layer).
fn layer_inputs(w: Workload, seed: u64, scale: Scale, rec: &mut Recorder) -> Inputs {
    if w != Workload::ServeClosed2c {
        return generate(w, seed, scale, rec);
    }
    let (cfg, pattern, end) = serve_load::resolved_spec(1);
    Inputs {
        drive: Drive::ForCycles(end),
        slice: SLICE_CYCLES,
        cfg,
        source: Source::Synthetic(pattern),
        trace_instrs: 0,
    }
}

/// The serve part of the traced run: one closed-loop round with per-job
/// spans, one without, and the in-process cost of the same jobs.
fn trace_serve(seed: u64, scale: Scale, started: Instant, rec: &mut Recorder, t: &mut LayerTable) {
    let jobs = serve_load::jobs_per_traced_round(scale);
    let traced = match serve_load::run_load(seed, jobs, started, rec, 200) {
        Ok(round) => round,
        Err(why) => return t.failures.push(why),
    };
    let condensed = serve_load::condense(seed, &traced, true);
    t.failures.extend(condensed.failures.iter().cloned());
    let lat = &condensed.job_latencies_ms;
    let pct =
        |p: f64| percentile(lat, p).unwrap_or_else(|_| lat.iter().copied().fold(0.0, f64::max));
    t.set("serve.job_latency_p50_ms", pct(50.0));
    t.set("serve.job_latency_p90_ms", pct(90.0));
    t.set("serve.jobs_per_s", lat.len() as f64 / traced.wall_s);
    t.set(
        "serve.http_rtt_ms",
        percentile(&traced.http_rtt_ms, 50.0).unwrap_or(0.0),
    );
    for (metric, span) in [
        ("serve.submit_ms", "serve.submit"),
        ("serve.wait_ms", "serve.wait"),
        ("serve.fetch_ms", "serve.fetch"),
    ] {
        t.set(
            metric,
            percentile(&rec.durations_ms(span), 50.0).unwrap_or(0.0),
        );
    }
    let done: Vec<_> = traced.jobs.iter().filter(|j| j.outcome.is_ok()).collect();
    let bytes: usize = done.iter().map(|j| j.body_bytes).sum();
    t.set(
        "serve.status_body_bytes",
        bytes as f64 / done.len().max(1) as f64,
    );
    t.set("serve.jobs_done", done.len() as f64);
    t.set(
        "serve.shed_429",
        traced.jobs.iter().filter(|j| j.shed).count() as f64,
    );

    const PARSES: u32 = 1000;
    let parse = Instant::now();
    for _ in 0..PARSES {
        for spec in serve_load::SPECS {
            black_box(JobSpec::from_json(spec).and_then(|s| s.resolve())).ok();
        }
    }
    let per_parse =
        parse.elapsed().as_secs_f64() / f64::from(PARSES) / serve_load::SPECS.len() as f64;
    t.set("serve.spec_parse_us", per_parse * 1e6);

    // Best of three in-process runs of each spec: what the jobs cost with
    // no service around them.
    let mut in_process = [f64::INFINITY; serve_load::SPECS.len()];
    for _ in 0..MIN_REPS {
        for (slot, spec) in in_process.iter_mut().zip(serve_load::SPECS) {
            match serve_load::run_in_process(spec) {
                Ok((_, secs)) => *slot = slot.min(secs),
                Err(why) => return t.failures.push(why),
            }
        }
    }
    let run_ms: f64 = done.iter().map(|j| in_process[j.spec] * 1e3).sum();
    let latency_ms: f64 = done.iter().map(|j| j.latency_ms).sum();
    t.set(
        "serve.run_share",
        if latency_ms > 0.0 {
            run_ms / latency_ms
        } else {
            0.0
        },
    );

    match serve_load::run_load(seed, jobs, Instant::now(), &mut Recorder::off(), 0) {
        Ok(untraced) => {
            t.set("bench.traced_wall_s", traced.wall_s);
            t.set(
                "bench.trace_overhead_ratio",
                traced.wall_s / untraced.wall_s,
            );
        }
        Err(why) => t.failures.push(why),
    }
    t.digest = condensed.digest;
}

/// One pass of a workload's simulator, start to outputs.
struct Pass {
    cfg: SystemConfig,
    how: Drive,
    trace_instrs: u64,
    sim: Simulator,
    out: Outputs,
    /// Host seconds of [`drive`], all segments together.
    wall_s: f64,
    /// Empty unless the pass was traced.
    tapes: Tapes,
}

/// Constructs and drives once. With `rec` on, the pass is the traced one:
/// spans around every call into a layer, and the tapes recorded. `how`
/// overrides the workload's drive.
fn pass(inputs: Inputs, how: Option<Drive>, rec: &mut Recorder) -> Result<Pass, String> {
    let (cfg, how) = (inputs.cfg.clone(), how.unwrap_or(inputs.drive));
    let mut sim = construct(inputs.cfg, inputs.source, rec);
    let tapes = Rc::new(RefCell::new(Tapes::default()));
    if rec.enabled() {
        assert_eq!(cfg.channels, 1, "the tapes cover one channel");
        sim.attach_probe(0, Box::new(TapeProbe(Rc::clone(&tapes))));
    }
    let t0 = Instant::now();
    let out = drive(&mut sim, how, inputs.slice, rec)?;
    let wall_s = t0.elapsed().as_secs_f64();
    let tapes = tapes.take();
    Ok(Pass {
        cfg,
        how,
        trace_instrs: inputs.trace_instrs,
        sim,
        out,
        wall_s,
        tapes,
    })
}

/// One repeat of every isolation loop on the traced pass's tapes, noting
/// the seconds of each in `best`. `small` is the workload's source cut to
/// `Sizes::prefix_instrs` per core; `unchained` runs the workload to the
/// given cycle without its checkpoint chain and returns the seconds.
/// Returns the requests the `memctrl` replay fed and the armed auditor's
/// findings.
fn isolation_loops(
    traced: &mut Pass,
    small: &Source,
    unchained: &dyn Fn(Cycle) -> Result<f64, String>,
    sizes: Sizes,
    best: &mut Best,
) -> Result<(usize, u64), String> {
    let (cfg, report) = (&traced.cfg, &traced.out.report);
    let tapes = &traced.tapes;
    let cmds = &tapes.commands[..tapes.commands.partition_point(|c| c.at < sizes.loop_cycles)];
    let reqs = &tapes.requests[..tapes.requests.partition_point(|r| r.at < sizes.loop_cycles)];
    let end = report.sim_cycles.min(sizes.loop_cycles);
    let dev = cfg.ctrl.device;

    best.note("dram.issue", dram_loop(cmds, dev, None)?);
    best.note("dram.query", dram_loop(cmds, dev, Some(true))?);
    best.note("dram.query_nomemo", dram_loop(cmds, dev, Some(false))?);
    let offline = Instant::now();
    stack_from_trace(cmds, dev, end).map_err(|e| format!("offline stack: {e}"))?;
    best.note("core.offline", offline.elapsed().as_secs_f64());

    let (on_s, fed, stats) = memctrl_loop(reqs, &cfg.ctrl, end, true);
    best.note("memctrl.on", on_s);
    best.note("memctrl.off", memctrl_loop(reqs, &cfg.ctrl, end, false).0);
    // The run's last pump accepts requests no tick ever saw; they are on no
    // tape, so the accepted counts may differ by them.
    let served = |s: CtrlStats| CtrlStats {
        reads_accepted: 0,
        writes_accepted: 0,
        ..s
    };
    let whole_tape = report.sim_cycles <= sizes.loop_cycles;
    if whole_tape && served(stats) != served(report.ctrl_stats) {
        return Err(format!(
            "request tape replay gives {stats:?}, the run gave {:?}",
            report.ctrl_stats
        ));
    }
    best.note(
        "core.account",
        account_loop(reqs, &cfg.ctrl, end, cfg.sample_period),
    );
    best.note("cpu.hier", hier_loop(cfg, small, sizes.hier_accesses));
    best.note("cpu.tick", core_tick_loop(cfg, small, sizes.tick_cycles));
    if let Source::Synthetic(p) = small {
        best.note("workloads.synth", synth_loop(p, sizes.synth_pulls));
    }

    // The with/without runs go round twice per repeat: a ratio of two best
    // times needs each side to have met a quiet moment.
    let cycles = sizes.ratio_cycles;
    let mut findings = 0;
    for _ in 0..2 {
        let plain = ratio_run(cfg, small, cycles, Variant::Plain)?;
        best.note("sim.plain", plain.0);
        let telemetry = ratio_run(cfg, small, cycles, Variant::Telemetry)?;
        best.note("obs.telemetry", telemetry.0);
        let audit = ratio_run(cfg, small, cycles, Variant::Audit)?;
        best.note("audit.armed", audit.0);
        findings = audit.1;
        if let Some((sliced, straight)) = run_job_pair(cfg, small, cycles)? {
            best.note("sim.run_job", sliced);
            best.note("sim.run_for_us", straight);
        }
    }
    if let Drive::Checkpointed { end, .. } = traced.how {
        // The whole run without the chain, against the checkpointed passes.
        best.note("sim.unchained", unchained(end)?);
    }
    best.note("obs.window", telemetry_loop(report));
    best.note("viz.render", render_loop(cfg, report));

    let snap_t = Instant::now();
    let snap = traced
        .sim
        .snapshot()
        .map_err(|e| format!("snapshot: {e}"))?;
    best.note("sim.snapshot", snap_t.elapsed().as_secs_f64());
    let restore_t = Instant::now();
    traced
        .sim
        .restore(&snap)
        .map_err(|e| format!("restore: {e}"))?;
    best.note("sim.restore", restore_t.elapsed().as_secs_f64());
    Ok((fed, findings))
}

/// Runs the traced pass of `w` and every isolation loop, for about
/// `seconds` seconds (at least [`MIN_REPS`] repeats of each loop).
/// `started` is when this workload's set-up began.
pub fn trace_workload(
    w: Workload,
    seed: u64,
    scale: Scale,
    seconds: f64,
    started: Instant,
) -> LayerTable {
    let mut t = LayerTable {
        workload: w.name().to_string(),
        seed,
        ..LayerTable::default()
    };
    let mut rec = Recorder::new(started, 0);
    if w == Workload::ServeClosed2c {
        trace_serve(seed, scale, started, &mut rec, &mut t);
    }
    if let Err(why) = trace_sim(w, seed, scale, seconds, started, &mut rec, &mut t) {
        t.failures.push(why);
    }
    t.spans = rec.spans().to_vec();
    t
}

/// The simulator part of the traced run: passes, counts, isolation loops.
fn trace_sim(
    w: Workload,
    seed: u64,
    scale: Scale,
    seconds: f64,
    started: Instant,
    rec: &mut Recorder,
    t: &mut LayerTable,
) -> Result<(), String> {
    // Untraced and traced passes alternate, twice; the floors of each kind
    // (every segment's faster pass) are compared.
    let sizes = Sizes::of(scale);
    let untraced = |how: Option<Drive>| {
        let off = &mut Recorder::off();
        pass(layer_inputs(w, seed, scale, off), how, off)
    };
    let plain = untraced(None)?;
    let inputs = layer_inputs(w, seed, scale, rec);
    let small = prefix(&inputs.source, sizes.prefix_instrs);
    let mut traced = pass(inputs, None, rec)?;
    let plain_again = untraced(None)?;
    let throwaway = &mut Recorder::new(started, 0);
    let traced_again = pass(layer_inputs(w, seed, scale, throwaway), None, throwaway)?;
    let floor = |a: &Pass, b: &Pass| {
        segment_floor(&[&a.out.segments, &b.out.segments]).map_or(a.wall_s.min(b.wall_s), |f| f.0)
    };
    let untraced_wall_s = floor(&plain, &plain_again);
    let traced_wall_s = floor(&traced, &traced_again);
    drop((plain_again, traced_again));

    t.failures.extend(check_outputs(
        &traced.cfg,
        traced.how,
        &traced.sim,
        &traced.out,
    ));
    if report_digest(&traced.out.report) != report_digest(&plain.out.report) {
        t.failures
            .push("the traced pass changed the simulated results".to_string());
    }
    if w != Workload::ServeClosed2c {
        t.digest = report_digest(&traced.out.report);
        t.set("bench.traced_wall_s", traced_wall_s);
        t.set(
            "bench.trace_overhead_ratio",
            traced_wall_s / untraced_wall_s,
        );
    }
    drop(plain);
    fill_counts(t, &traced, rec, untraced_wall_s);

    // Every layer from outside, best of as many repeats as the budget allows.
    let unchained = |end| untraced(Some(Drive::ForCycles(end))).map(|p| p.wall_s);
    let mut best = Best::default();
    let (mut fed, mut findings, mut reps) = (0, 0, 0);
    while reps < MIN_REPS || (reps < MAX_REPS && started.elapsed().as_secs_f64() < seconds) {
        (fed, findings) = isolation_loops(&mut traced, &small, &unchained, sizes, &mut best)?;
        reps += 1;
    }

    let cmds = traced
        .tapes
        .commands
        .partition_point(|c| c.at < sizes.loop_cycles);
    let end = traced.out.report.sim_cycles.min(sizes.loop_cycles) as usize;
    let per = |key: &str, n: usize| best.get(key) / n.max(1) as f64 * 1e9;
    let per_query = |key: &str| {
        let queries = cmds * QUERY_CYCLES as usize * 4;
        (best.get(key) - best.get("dram.issue")).max(0.0) / queries.max(1) as f64 * 1e9
    };
    t.set("dram.issue_ns", per("dram.issue", cmds));
    t.set("dram.query_ns", per_query("dram.query"));
    t.set("dram.query_nomemo_ns", per_query("dram.query_nomemo"));
    t.set("core.offline_cycle_ns", per("core.offline", end));
    t.set("memctrl.tick_ns", per("memctrl.on", end));
    t.set("memctrl.ns_per_req", per("memctrl.on", fed));
    t.set(
        "memctrl.busy_engine_ratio",
        best.ratio("memctrl.on", "memctrl.off"),
    );
    t.set("core.account_ns", best.get("core.account") * 1e9);
    t.set("cpu.hier_access_ns", best.get("cpu.hier") * 1e9);
    t.set("cpu.core_tick_ns", best.get("cpu.tick") * 1e9);
    t.set(
        "workloads.synth_instr_ns",
        best.get("workloads.synth") * 1e9,
    );
    t.set(
        "obs.telemetry_overhead_ratio",
        best.ratio("obs.telemetry", "sim.plain"),
    );
    t.set(
        "audit.armed_overhead_ratio",
        best.ratio("audit.armed", "sim.plain"),
    );
    t.set("audit.findings", findings as f64);
    t.set(
        "sim.run_job_ratio",
        best.ratio("sim.run_job", "sim.run_for_us"),
    );
    if best.get("sim.unchained") > 0.0 {
        t.set(
            "sim.ckpt_overhead_ratio",
            untraced_wall_s / best.get("sim.unchained"),
        );
    }
    t.set("sim.snapshot_full_ms", best.get("sim.snapshot") * 1e3);
    t.set("sim.restore_ms", best.get("sim.restore") * 1e3);
    t.set("obs.telemetry_window_us", best.get("obs.window") * 1e6);
    t.set("viz.render_ms", best.get("viz.render") * 1e3);
    t.set("bench.loop_reps", reps as f64);
    if findings > 0 {
        t.failures
            .push(format!("the armed auditor reported {findings} findings"));
    }
    Ok(())
}

/// The metrics that are counts, shares and span totals of the traced pass.
fn fill_counts(t: &mut LayerTable, traced: &Pass, rec: &Recorder, untraced_wall_s: f64) {
    let (cfg, sim, out, tapes) = (&traced.cfg, &traced.sim, &traced.out, &traced.tapes);
    let r = &out.report;
    t.set(
        "workloads.graph_build_s",
        rec.total_s("workloads.graph_build"),
    );
    t.set(
        "workloads.trace_build_s",
        rec.total_s("workloads.trace_build"),
    );
    t.set("workloads.trace_instrs", traced.trace_instrs as f64);

    let (l1, _, llc) = r.cache_stats;
    t.set("cpu.l1_hit_share", share(l1.hits, l1.hits + l1.misses));
    t.set(
        "cpu.llc_miss_share",
        share(llc.misses, llc.hits + llc.misses),
    );
    let h = r.hierarchy_stats;
    t.set(
        "cpu.prefetch_useful_share",
        share(h.prefetch_hits, h.dram_prefetch_reads),
    );
    t.set("cpu.mshr_merges", h.mshr_merges as f64);
    t.set("cpu.ipc", r.ipc());

    let c = r.ctrl_stats;
    t.set("memctrl.row_hit_share", c.page_hit_rate());
    t.set("memctrl.reads_done", c.reads_done as f64);
    t.set("memctrl.writes_done", c.writes_done as f64);
    t.set("memctrl.write_drains", c.write_drains as f64);
    t.set(
        "memctrl.drain_cycle_share",
        share(c.drain_cycles, r.sim_cycles),
    );

    let d = sim.controller(0).device().stats();
    t.set("dram.acts", d.activates as f64);
    t.set("dram.pres", d.precharges as f64);
    t.set("dram.refs", d.refreshes as f64);
    t.set("dram.cas", (d.reads + d.writes) as f64);
    t.set(
        "dram.cmds_per_kcycle",
        share(tapes.commands.len() as u64 * 1000, r.sim_cycles),
    );

    t.set("core.conservation_err", conservation_err(cfg, r));
    t.set(
        "core.refresh_oracle_err_pct",
        refresh_oracle_err_pct(cfg, r).unwrap_or(0.0),
    );
    t.set("core.bw_achieved_gbps", r.achieved_gbps());
    t.set("core.lat_avg_ns", r.avg_read_latency_ns());
    let total_ns = r.latency_stack.total_ns();
    t.set(
        "core.lat_queue_share",
        if total_ns > 0.0 {
            r.latency_stack.ns(LatComponent::Queue) / total_ns
        } else {
            0.0
        },
    );

    let (ff, busy) = (r.perf.fast_forwarded_cycles, r.perf.busy_forwarded_cycles);
    let stepped = r.sim_cycles.saturating_sub(ff + busy);
    t.set("sim.construct_s", rec.total_s("sim.construct"));
    t.set("sim.step_ns", untraced_wall_s / stepped.max(1) as f64 * 1e9);
    t.set("sim.stepped_share", share(stepped, r.sim_cycles));
    t.set("sim.busy_forwarded_share", share(busy, r.sim_cycles));
    t.set("sim.fast_forwarded_share", share(ff, r.sim_cycles));
    t.set("sim.report_s", rec.total_s("sim.report"));
    t.set("sim.to_json_s", rec.total_s("sim.to_json"));
    t.set("sim.report_json_bytes", out.json.len() as f64);
    if out.ckpt.count > 0 {
        let each = rec.durations_ms("sim.checkpoint");
        t.set("sim.ckpt_count", out.ckpt.count as f64);
        t.set(
            "sim.ckpt_checkpoint_ms",
            each.iter().sum::<f64>() / each.len().max(1) as f64,
        );
        t.set("sim.ckpt_finish_ms", rec.total_s("sim.ckpt_finish") * 1e3);
        t.set(
            "sim.ckpt_bytes_per_ckpt",
            out.ckpt.bytes as f64 / out.ckpt.count as f64,
        );
    }
    t.set("bench.tape_requests", tapes.requests.len() as f64);
    t.set("bench.tape_commands", tapes.commands.len() as f64);
}

// ---------------------------------------------------------------------------
// Output
// ---------------------------------------------------------------------------

/// The layer table, outside in: one block per workload, one group per
/// layer, each group ending with the end-to-end metric it should move.
pub fn render(machine: &Machine, seed: u64, tables: &[LayerTable]) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "refbench trace  commit {}  {}  nproc {}  {}\nloadavg {} -> {}  seed {}\nhost times: best repeat of each loop; counts: exact; 0: the workload bypasses the layer",
        machine.git_commit, machine.rustc, machine.nproc, machine.cpu_model,
        machine.loadavg_start, machine.loadavg_end, seed
    );
    for t in tables {
        let _ = writeln!(out, "\n{}  digest {}", t.workload, t.digest);
        for layer in LAYER_MAP.iter().rev() {
            let _ = writeln!(out, "  [{}] moves: {}", layer.layer, layer.moves);
            for m in PER_LAYER
                .iter()
                .filter(|m| spans::layer_of(m.name) == layer.layer)
            {
                let _ = writeln!(
                    out,
                    "    {:<32} {:>16.6} {:<12} ({} is better)",
                    m.name,
                    t.value(m.name),
                    m.unit,
                    m.better.as_str()
                );
            }
        }
        let own = spans::self_times_ns(&t.spans);
        let mut by_name: Vec<(&str, u64, u64, usize)> = Vec::new();
        for (s, own) in t.spans.iter().zip(own) {
            match by_name.iter_mut().find(|(n, ..)| *n == s.name) {
                Some(row) => {
                    row.1 += s.dur_ns();
                    row.2 += own;
                    row.3 += 1;
                }
                None => by_name.push((s.name, s.dur_ns(), own, 1)),
            }
        }
        let _ = writeln!(out, "  spans: name, count, total ms, self ms");
        for (name, total, own, n) in by_name {
            let _ = writeln!(
                out,
                "    {:<24} {:>6} {:>12.3} {:>12.3}",
                name,
                n,
                total as f64 / 1e6,
                own as f64 / 1e6
            );
        }
        for f in &t.failures {
            let _ = writeln!(out, "  FAILED: {f}");
        }
    }
    out
}

/// The same as JSON, for `--out`.
pub fn to_json(machine: &Machine, seed: u64, tables: &[LayerTable]) -> String {
    let text = |s: &str| Value::Str(s.to_string());
    let tables = tables
        .iter()
        .map(|t| {
            let metrics = PER_LAYER
                .iter()
                .map(|m| {
                    let fields = vec![
                        ("value".to_string(), Value::Float(t.value(m.name))),
                        ("unit".to_string(), text(m.unit)),
                        ("better".to_string(), text(m.better.as_str())),
                    ];
                    (m.name.to_string(), Value::Map(fields))
                })
                .collect();
            Value::Map(vec![
                ("workload".to_string(), text(&t.workload)),
                ("seed".to_string(), Value::Int(i128::from(t.seed))),
                ("digest".to_string(), text(&t.digest)),
                ("metrics".to_string(), Value::Map(metrics)),
                (
                    "failures".to_string(),
                    Value::Seq(t.failures.iter().map(|f| text(f)).collect()),
                ),
            ])
        })
        .collect();
    let layers = LAYER_MAP
        .iter()
        .map(|l| (l.layer.to_string(), text(l.moves)))
        .collect();
    let doc = Value::Map(vec![
        ("machine".to_string(), serde_json::to_value(machine)),
        ("seed".to_string(), Value::Int(i128::from(seed))),
        ("layer_moves".to_string(), Value::Map(layers)),
        ("tables".to_string(), Value::Seq(tables)),
    ]);
    serde_json::to_string_pretty(&doc).expect("the vendored serializer is infallible")
}

/// Writes every table's spans as one Chrome trace-event file and returns its
/// path (inside the build directory).
pub fn write_span_trace(tables: &[LayerTable]) -> std::io::Result<PathBuf> {
    let dir = env::scratch_dir();
    std::fs::create_dir_all(&dir)?;
    let path = dir.join("trace.json");
    let processes: Vec<(&str, &[Span])> = tables
        .iter()
        .map(|t| (t.workload.as_str(), t.spans.as_slice()))
        .collect();
    std::fs::write(&path, spans::chrome_json(&processes))?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tapes_of(w: Workload, seed: u64) -> (Tapes, String) {
        let inputs = generate(w, seed, Scale::Smoke, &mut Recorder::off());
        let (how, slice) = (inputs.drive, inputs.slice);
        let tapes = Rc::new(RefCell::new(Tapes::default()));
        let mut sim = construct(inputs.cfg, inputs.source, &mut Recorder::off());
        sim.attach_probe(0, Box::new(TapeProbe(Rc::clone(&tapes))));
        let out = drive(&mut sim, how, slice, &mut Recorder::off()).unwrap();
        let tapes = tapes.borrow().clone();
        (tapes, report_digest(&out.report))
    }

    #[test]
    fn same_seed_gives_identical_tapes_and_another_seed_different_ones() {
        for w in [Workload::RandRw8c, Workload::Chase1c] {
            let (a, da) = tapes_of(w, 1);
            let (b, db) = tapes_of(w, 1);
            let (c, dc) = tapes_of(w, 2);
            assert!(!a.requests.is_empty() && !a.commands.is_empty(), "{w:?}");
            assert!(
                a == b && da == db,
                "{w:?}: same seed, same tapes and digest"
            );
            assert!(
                a.requests != c.requests && da != dc,
                "{w:?}: another seed differs"
            );
            assert!(
                a.requests.windows(2).all(|p| p[0].at <= p[1].at),
                "{w:?}: sorted"
            );
        }
    }

    #[test]
    fn traced_smoke_fills_the_layer_table_for_every_workload() {
        for w in Workload::ALL {
            let t = trace_workload(w, 1, Scale::Smoke, 0.0, Instant::now());
            assert!(t.failures.is_empty(), "{}: {:?}", t.workload, t.failures);
            for name in [
                "memctrl.tick_ns",
                "dram.issue_ns",
                "cpu.core_tick_ns",
                "sim.construct_s",
            ] {
                assert!(t.value(name) > 0.0, "{}: {name}", t.workload);
            }
            assert_eq!(t.value("bench.loop_reps"), MIN_REPS as f64);
            assert!(t.spans.iter().any(|s| s.name == "sim.advance"));
            let serve = t.value("serve.jobs_done") > 0.0;
            assert_eq!(serve, w == Workload::ServeClosed2c);
            assert_eq!(t.value("sim.ckpt_count") > 0.0, w == Workload::CkptStream2c);
            assert_eq!(
                t.value("workloads.graph_build_s") > 0.0,
                w == Workload::GapPr8c
            );
        }
    }

    #[test]
    fn table_renders_and_serializes_every_metric() {
        let t = trace_workload(Workload::RandRw8c, 1, Scale::Smoke, 0.0, Instant::now());
        let machine = Machine::describe();
        let text = render(&machine, 1, std::slice::from_ref(&t));
        let doc: Value = serde_json::from_str(&to_json(&machine, 1, &[t])).unwrap();
        let metrics = doc
            .get("tables")
            .and_then(|t| t.index(0))
            .and_then(|t| t.get("metrics"));
        for m in &PER_LAYER {
            assert!(text.contains(m.name), "{}", m.name);
            assert!(
                metrics.and_then(|ms| ms.get(m.name)).is_some(),
                "{}",
                m.name
            );
        }
        assert!(text.contains("self ms") && text.contains("[memctrl] moves:"));
    }
}
