//! Tracing from outside the program: an [`ExecBackend`] wrapper and a
//! [`Kernels`] wrapper that time every call into the layer below and record
//! spans, installed only in the traced run.

use std::cell::Cell;
use std::io::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use hdc::kernels::Kernels;
use hdc::HvMatrix;
use imaging::{ImageView, TileRect};
use seghdc::{ClusterOutcome, ExecBackend, HvKmeans, PixelEncoder, SimdCpuBackend};

/// One timed interval. Spans of one op share `op`; `parent` is the span
/// that caused this one (`None` for an op's root span).
pub struct Span {
    pub op: u64,
    pub id: u32,
    pub parent: Option<u32>,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Layer-specific counts, e.g. rows encoded or server-reported times.
    pub attrs: Vec<(&'static str, u64)>,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// In-memory span store, written out once when the run ends.
pub struct SpanLog {
    epoch: Instant,
    next_id: AtomicU32,
    next_op: AtomicU64,
    /// The op and root span the engine is currently running; backend spans
    /// become its children. Engine workloads run one op at a time.
    current: Mutex<(u64, u32)>,
    spans: Mutex<Vec<Span>>,
}

/// An op whose root span is open.
pub struct OpGuard {
    op: u64,
    id: u32,
    start: Instant,
}

impl SpanLog {
    pub fn new() -> Arc<Self> {
        Arc::new(Self {
            epoch: Instant::now(),
            next_id: AtomicU32::new(0),
            next_op: AtomicU64::new(0),
            current: Mutex::new((0, 0)),
            spans: Mutex::new(Vec::new()),
        })
    }

    fn ns(&self, at: Instant) -> u64 {
        at.duration_since(self.epoch).as_nanos() as u64
    }

    /// Opens the root span of a new op and makes it the parent of backend
    /// spans recorded until the next `begin_op`.
    pub fn begin_op(&self) -> OpGuard {
        let op = self.next_op.fetch_add(1, Ordering::Relaxed);
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        *self.current.lock().expect("span log lock poisoned") = (op, id);
        OpGuard {
            op,
            id,
            start: Instant::now(),
        }
    }

    /// Closes an op's root span at `end`.
    pub fn end_op(
        &self,
        guard: OpGuard,
        name: &'static str,
        end: Instant,
        attrs: Vec<(&'static str, u64)>,
    ) {
        self.push(Span {
            op: guard.op,
            id: guard.id,
            parent: None,
            name,
            start_ns: self.ns(guard.start),
            end_ns: self.ns(end),
            attrs,
        });
    }

    /// Records a child of the current op's root span.
    fn child(
        &self,
        name: &'static str,
        start: Instant,
        end: Instant,
        attrs: Vec<(&'static str, u64)>,
    ) {
        let (op, parent) = *self.current.lock().expect("span log lock poisoned");
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        self.push(Span {
            op,
            id,
            parent: Some(parent),
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            attrs,
        });
    }

    fn push(&self, span: Span) {
        self.spans
            .lock()
            .expect("span log lock poisoned")
            .push(span);
    }

    /// Takes every span recorded so far, ordered by op then start.
    pub fn take(&self) -> Vec<Span> {
        let mut spans = std::mem::take(&mut *self.spans.lock().expect("span log lock poisoned"));
        spans.sort_by_key(|s| (s.op, s.start_ns, s.id));
        spans
    }
}

/// Writes spans as JSON lines.
pub fn write_spans(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        write!(
            out,
            "{{\"op\": {}, \"id\": {}, \"parent\": {parent}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}",
            s.op, s.id, s.name, s.start_ns, s.end_ns
        )?;
        for (key, value) in &s.attrs {
            write!(out, ", \"{key}\": {value}")?;
        }
        writeln!(out, "}}")?;
    }
    out.flush()
}

/// The engine's default backend with a span around each call.
#[derive(Debug)]
pub struct TracedBackend {
    inner: SimdCpuBackend,
    log: Arc<SpanLog>,
}

impl TracedBackend {
    pub fn new(kernels: &'static dyn Kernels, log: Arc<SpanLog>) -> Self {
        Self {
            inner: SimdCpuBackend::with_kernels(kernels),
            log,
        }
    }
}

impl std::fmt::Debug for SpanLog {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("SpanLog")
    }
}

impl ExecBackend for TracedBackend {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn kernel_isa(&self) -> &'static str {
        self.inner.kernel_isa()
    }

    fn host_kernels(&self) -> &'static dyn Kernels {
        self.inner.host_kernels()
    }

    fn encode_region(
        &self,
        encoder: &PixelEncoder,
        view: &ImageView<'_>,
        region: &TileRect,
        scratch: &mut HvMatrix,
    ) -> seghdc::Result<()> {
        let start = Instant::now();
        let result = self.inner.encode_region(encoder, view, region, scratch);
        let rows = region.area() as u64;
        self.log.child(
            "backend.encode_region",
            start,
            Instant::now(),
            vec![("rows", rows)],
        );
        result
    }

    fn cluster_matrix(
        &self,
        kmeans: &HvKmeans,
        pixels: &HvMatrix,
        intensities: &[u8],
    ) -> seghdc::Result<ClusterOutcome> {
        let start = Instant::now();
        let result = self.inner.cluster_matrix(kmeans, pixels, intensities);
        let iterations = result.as_ref().map_or(0, |o| o.iterations_run as u64);
        self.log.child(
            "backend.cluster_matrix",
            start,
            Instant::now(),
            vec![("iterations", iterations)],
        );
        result
    }
}

/// The kernel ops whose calls are counted and timed: the K-Means assign
/// step (`*_multi`) and its update step (`bundle_add_planes`).
pub const KERNEL_OPS: [&str; 4] = [
    "plane_dot_multi",
    "hamming_multi",
    "counts_dot_multi",
    "bundle_add_planes",
];

#[derive(Debug, Default)]
struct OpCounters {
    calls: AtomicU64,
    bytes: AtomicU64,
    sampled_calls: AtomicU64,
    sampled_ns: AtomicU64,
}

/// One thread's counters for every op, on a cache line of its own so
/// threads counting at once do not contend.
#[derive(Debug, Default)]
#[repr(align(128))]
struct Slot([OpCounters; 4]);

/// Threads map onto slots by a per-thread id; the pool spawns at most a
/// few threads at a time, so concurrent threads rarely share a slot (and
/// sharing one only costs contention, never a count).
const SLOTS: usize = 64;

/// Kernel calls are too short to put two clock reads around each: every
/// call is counted, and one in this many per thread is timed. Busy time
/// is the timed calls' mean duration times the call count.
const TIME_ONE_IN: u32 = 16;

thread_local! {
    /// This thread's slot, and its call counter for choosing timed calls.
    static LOCAL: (usize, Cell<u32>) = {
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        (NEXT.fetch_add(1, Ordering::Relaxed) % SLOTS, Cell::new(0))
    };
}

/// Totals of one kernel op.
#[derive(Debug, Clone, Copy, Default)]
pub struct KernelTotals {
    pub calls: u64,
    pub busy_ns: u64,
    pub bytes: u64,
}

/// A [`Kernels`] implementation that delegates every method to `inner` and
/// counts calls, busy time and bytes touched (from slice lengths) of the
/// ops in [`KERNEL_OPS`], summed over every thread that calls in.
#[derive(Debug)]
pub struct TracedKernels {
    inner: &'static dyn Kernels,
    slots: Vec<Slot>,
}

const WORD: usize = std::mem::size_of::<u64>();

impl TracedKernels {
    /// Wraps `inner` for the rest of the process (kernels are `'static`).
    pub fn leak(inner: &'static dyn Kernels) -> &'static Self {
        Box::leak(Box::new(Self {
            inner,
            slots: (0..SLOTS).map(|_| Slot::default()).collect(),
        }))
    }

    /// Runs `f` as one call of `op`, timing it if it is this thread's
    /// turn; `f` reports the bytes it touched, or `None` if it declined
    /// the work (declined calls are not counted).
    fn timed<R>(&self, op: usize, f: impl FnOnce() -> (R, Option<usize>)) -> R {
        let (slot, turn) = LOCAL.with(|(slot, tick)| {
            let turn = tick.get();
            tick.set(turn.wrapping_add(1));
            (*slot, turn % TIME_ONE_IN == 0)
        });
        let start = turn.then(Instant::now);
        let (result, bytes) = f();
        let elapsed = start.map(|s| s.elapsed().as_nanos() as u64);
        if let Some(bytes) = bytes {
            let counters = &self.slots[slot].0[op];
            counters.calls.fetch_add(1, Ordering::Relaxed);
            counters.bytes.fetch_add(bytes as u64, Ordering::Relaxed);
            if let Some(ns) = elapsed {
                counters.sampled_calls.fetch_add(1, Ordering::Relaxed);
                counters.sampled_ns.fetch_add(ns, Ordering::Relaxed);
            }
        }
        result
    }

    pub fn totals(&self) -> [KernelTotals; 4] {
        std::array::from_fn(|op| {
            let sum = |f: fn(&OpCounters) -> &AtomicU64| -> u64 {
                self.slots
                    .iter()
                    .map(|slot| f(&slot.0[op]).load(Ordering::Relaxed))
                    .sum()
            };
            let calls = sum(|c| &c.calls);
            let sampled_calls = sum(|c| &c.sampled_calls);
            let busy_ns = if sampled_calls == 0 {
                0
            } else {
                (u128::from(sum(|c| &c.sampled_ns)) * u128::from(calls) / u128::from(sampled_calls))
                    as u64
            };
            KernelTotals {
                calls,
                busy_ns,
                bytes: sum(|c| &c.bytes),
            }
        })
    }
}

impl Kernels for TracedKernels {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn xor_into(&self, dst: &mut [u64], src: &[u64]) {
        self.inner.xor_into(dst, src);
    }

    fn popcount(&self, words: &[u64]) -> u64 {
        self.inner.popcount(words)
    }

    fn hamming(&self, a: &[u64], b: &[u64]) -> u64 {
        self.inner.hamming(a, b)
    }

    fn and_popcount(&self, a: &[u64], b: &[u64]) -> u64 {
        self.inner.and_popcount(a, b)
    }

    fn plane_dot(&self, planes: &[u64], words_per_plane: usize, row: &[u64]) -> u64 {
        self.inner.plane_dot(planes, words_per_plane, row)
    }

    fn plane_dot_multi(
        &self,
        planes: &[u64],
        words_per_plane: usize,
        group_plane_counts: &[usize],
        row: &[u64],
        out: &mut [u64],
    ) {
        let bytes = (planes.len() + row.len() + out.len()) * WORD;
        self.timed(0, || {
            self.inner
                .plane_dot_multi(planes, words_per_plane, group_plane_counts, row, out);
            ((), Some(bytes))
        });
    }

    fn hamming_multi(&self, row: &[u64], stacked: &[u64], out: &mut [u64]) {
        let bytes = (row.len() + stacked.len() + out.len()) * WORD;
        self.timed(1, || {
            self.inner.hamming_multi(row, stacked, out);
            ((), Some(bytes))
        });
    }

    fn counts_dot_multi(&self, counts: &[u16], row: &[u64], out: &mut [u64]) -> bool {
        let bytes = counts.len() * 2 + (row.len() + out.len()) * WORD;
        self.timed(2, || {
            // A declined call does no work: the caller falls back to the
            // bit-sliced path.
            let handled = self.inner.counts_dot_multi(counts, row, out);
            (handled, handled.then_some(bytes))
        })
    }

    fn bundle_add_planes(
        &self,
        planes: &mut [u64],
        words_per_plane: usize,
        carry: &mut [u64],
    ) -> bool {
        let bytes = (planes.len() + carry.len()) * WORD;
        self.timed(3, || {
            let carried = self.inner.bundle_add_planes(planes, words_per_plane, carry);
            (carried, Some(bytes))
        })
    }
}
