//! The `serve-crops` workload: a loopback server driven by two closed-loop
//! `SegClient` connections sending 64×64 crops.

use std::collections::HashMap;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use seghdc::{SegEngine, SegHdcConfig, SegmentRequest};
use seghdc_server::{
    serve, RequestMode, ResponseBody, SegClient, ServerConfig, ServerHandle, WireSegmentRequest,
    WireSegmentResponse, WireStatsResponse,
};
use synthdata::{DatasetProfile, Sample};

use crate::host::{Measured, Window};
use crate::inprocess::{self, output_attrs};
use crate::report::{checksum, median, ms, quantile, ratio, Report, SplitMix};
use crate::trace::{self, SpanLog, TracedBackend, TracedKernels};
use crate::Args;

/// Distinct crops the clients rotate through.
const CROPS: usize = 64;
/// Closed-loop connections, one request in flight each.
const CLIENTS: usize = 2;
/// Fresh servers whose cold start `setup_s` is the median of.
const SETUP_REPEATS: usize = 41;
/// One request in this many carries a config seed no earlier request
/// used, so it misses the codebook cache and creates a new fleet engine.
const COLD_ONE_IN: u64 = 4;

/// What one request returned, kept small (labels are reduced to a
/// checksum) so a long run does not grow memory.
struct Outcome {
    image: usize,
    cold: bool,
    traced: bool,
    end: Instant,
    rtt: Duration,
    ok: bool,
    queue_wait_us: u64,
    service_us: u64,
    checksum: u64,
    wire_bytes: u64,
}

/// Sends requests in a closed loop until `deadline`. With a span log,
/// every other request is traced, two requests per crop, so traced and
/// untraced requests see the same crops under the same host conditions.
fn drive(
    client: &mut SegClient,
    thread: usize,
    seed: u64,
    requests: &[WireSegmentRequest],
    deadline: Instant,
    cold_seeds: &AtomicU64,
    log: Option<&SpanLog>,
) -> Vec<Outcome> {
    let mut rng = SplitMix(seed ^ (thread as u64 + 1).wrapping_mul(0xa076_1d64_78bd_642f));
    let mut outcomes = Vec::new();
    let mut i = 0;
    while Instant::now() < deadline {
        let (pair, log) = match log {
            Some(log) => (i / 2, (i % 2 == 1).then_some(log)),
            None => (i, None),
        };
        let image = (thread + CLIENTS * pair) % CROPS;
        i += 1;
        let cold = rng.next_u64().is_multiple_of(COLD_ONE_IN);
        let cold_request;
        let request = if cold {
            let mut fresh = requests[image].clone();
            fresh.config.seed = cold_seeds.fetch_add(1, Ordering::Relaxed);
            cold_request = fresh;
            &cold_request
        } else {
            &requests[image]
        };
        let request_bytes = log.map_or(0, |_| request.encode().len() as u64);
        let guard = log.map(SpanLog::begin_op);
        let start = Instant::now();
        let result = client.segment(request);
        let end = Instant::now();
        let mut outcome = Outcome {
            image,
            cold,
            traced: log.is_some(),
            end,
            rtt: end - start,
            ok: false,
            queue_wait_us: 0,
            service_us: 0,
            checksum: 0,
            wire_bytes: 0,
        };
        if let Ok(response) = &result {
            outcome.ok = matches!(response.body, ResponseBody::Labels { .. });
            outcome.queue_wait_us = response.queue_wait_us;
            outcome.service_us = response.service_us;
            if let ResponseBody::Labels { labels, .. } = &response.body {
                outcome.checksum = checksum(labels);
            }
            if let (Some(log), Some(guard)) = (log, guard) {
                outcome.wire_bytes = request_bytes + response.encode().len() as u64;
                log.end_op(
                    guard,
                    "client.segment",
                    end,
                    vec![
                        ("queue_wait_us", response.queue_wait_us),
                        ("service_us", response.service_us),
                        ("wire_bytes", outcome.wire_bytes),
                        ("cold", u64::from(cold)),
                    ],
                );
            }
        }
        outcomes.push(outcome);
    }
    outcomes
}

struct Phase {
    outcomes: Vec<Outcome>,
    measured: Measured,
    stats_before: WireStatsResponse,
    stats_after: WireStatsResponse,
}

impl Phase {
    /// End instant and latency of every successful request, traced or
    /// not as asked.
    fn ops(&self, traced: bool) -> Vec<(Instant, f64)> {
        self.outcomes
            .iter()
            .filter(|o| o.ok && o.traced == traced)
            .map(|o| (o.end, ms(o.rtt)))
            .collect()
    }
}

struct Bench<'a> {
    addr: SocketAddr,
    seed: u64,
    requests: &'a [WireSegmentRequest],
    cold_seeds: AtomicU64,
    /// Checksum of the first warm-config result per crop.
    first: HashMap<usize, u64>,
}

impl Bench<'_> {
    fn connect(&self) -> SegClient {
        SegClient::connect(self.addr).expect("the loopback server accepts connections")
    }

    fn check_labels(&mut self, report: &mut Report, image: usize, sum: u64) {
        let first = *self.first.entry(image).or_insert(sum);
        report.check(first == sum, || {
            format!("crop {image}: labels differ from its first result")
        });
    }

    /// Runs the clients for `duration`, checking every response.
    fn timed(&mut self, duration: Duration, report: &mut Report, log: Option<&SpanLog>) -> Phase {
        let mut clients: Vec<SegClient> = (0..CLIENTS).map(|_| self.connect()).collect();
        let stats_before = clients[0].stats().expect("STATS on a live connection");
        let window = Window::open();
        let deadline = Instant::now() + duration;
        let (seed, requests, cold_seeds) = (self.seed, self.requests, &self.cold_seeds);
        let outcomes: Vec<Outcome> = std::thread::scope(|scope| {
            let handles: Vec<_> = clients
                .iter_mut()
                .enumerate()
                .map(|(thread, client)| {
                    scope.spawn(move || {
                        drive(client, thread, seed, requests, deadline, cold_seeds, log)
                    })
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().expect("client thread panicked"))
                .collect()
        });
        let measured = window.close();
        let stats_after = clients[0].stats().expect("STATS on a live connection");
        report.attempted += outcomes.len() as u64;
        for outcome in &outcomes {
            if !outcome.ok {
                report.failed += 1;
                eprintln!("crop {}: request did not return labels", outcome.image);
            } else if !outcome.cold {
                self.check_labels(report, outcome.image, outcome.checksum);
            }
        }
        Phase {
            outcomes,
            measured,
            stats_before,
            stats_after,
        }
    }
}

/// Starts a fresh server and times it until the first result for the
/// crop shape returns. Returns the server, that cold start, the first
/// request's time minus a second (warm) request's, and the labels' checksum.
fn start_server(
    request: &WireSegmentRequest,
    report: &mut Report,
) -> (ServerHandle, Duration, Duration, u64) {
    let start = Instant::now();
    let handle = serve("127.0.0.1:0", ServerConfig::default()).expect("loopback server starts");
    let mut client = SegClient::connect(handle.local_addr()).expect("loopback server accepts");
    let first_start = Instant::now();
    let first = client.segment(request);
    let cold = start.elapsed();
    let warm_start = Instant::now();
    let second = client.segment(request);
    let warm = warm_start.elapsed();
    let build = (warm_start - first_start).saturating_sub(warm);
    let sums: Vec<u64> = [first, second]
        .iter()
        .map(|r| match r {
            Ok(WireSegmentResponse {
                body: ResponseBody::Labels { labels, .. },
                ..
            }) => checksum(labels),
            other => {
                report.fail(format!("setup request failed: {other:?}"));
                0
            }
        })
        .collect();
    report.check(sums[0] == sums[1], || {
        "setup: repeated request changed labels".to_string()
    });
    (handle, cold, build, sums[0])
}

pub fn run(args: &Args) -> Report {
    let mut report = Report::default();
    let config = SegHdcConfig::edge_dsb2018();
    let crops: Vec<Sample> = inprocess::samples(
        &DatasetProfile::dsb2018_like().scaled(64, 64),
        args.seed,
        CROPS,
    );
    let requests: Vec<WireSegmentRequest> = crops
        .iter()
        .map(|c| WireSegmentRequest::from_image(&config, &c.image, RequestMode::Auto, 0))
        .collect();

    let mut cold_s = Vec::new();
    let mut build_ms = Vec::new();
    let mut server = None;
    let mut first_sum = 0;
    for _ in 0..SETUP_REPEATS {
        if let Some(old) = server.take() {
            ServerHandle::shutdown(old);
        }
        let (handle, cold, build, sum) = start_server(&requests[0], &mut report);
        cold_s.push(cold.as_secs_f64());
        build_ms.push(ms(build));
        server = Some(handle);
        first_sum = sum;
    }
    let server = server.expect("at least one setup repeat");
    let mut bench = Bench {
        addr: server.local_addr(),
        seed: args.seed,
        requests: &requests,
        // Warm requests use the preset's seed, 0; cold seeds count up from 1.
        cold_seeds: AtomicU64::new(1),
        first: HashMap::from([(0, first_sum)]),
    };

    if !args.trace {
        let phase = bench.timed(args.seconds, &mut report, None);
        let (quality, kernel_isa) = score(&mut bench, &crops, &config, &mut report);
        inprocess::print_host(
            args,
            &kernel_isa,
            phase.outcomes.len() as u64,
            &phase.measured,
        );
        print_shares(&phase);
        inprocess::end_to_end(
            &mut report,
            median(&cold_s),
            &phase.ops(false),
            &phase.measured,
            quality,
        );
        server.shutdown();
        return report;
    }

    let half = args.seconds / 2;
    let plain = bench.timed(half, &mut report, None);
    let log = SpanLog::new();
    let traced = bench.timed(args.seconds - half, &mut report, Some(&log));
    let client_spans = log.take();
    let (_, kernel_isa) = score(&mut bench, &crops, &config, &mut report);
    server.shutdown();
    inprocess::print_host(
        args,
        &kernel_isa,
        traced.outcomes.len() as u64,
        &traced.measured,
    );
    print_shares(&traced);

    // The server builds its own engines, so the engine layers are measured
    // by replaying each crop once through a traced in-process engine. Its
    // spans share the log, so op ids stay unique across the spans file.
    let kernels = TracedKernels::leak(hdc::kernels::auto());
    let engine = SegEngine::builder(config.clone())
        .backend(Box::new(TracedBackend::new(kernels, Arc::clone(&log))))
        .build()
        .expect("edge configuration is valid");
    if let Err(err) = engine.run(&SegmentRequest::image(&crops[0].image)) {
        report.fail(format!("replay warm-up failed: {err}"));
    }
    log.take();
    let kernels_before = kernels.totals();
    for crop in &crops {
        let guard = log.begin_op();
        match engine.run(&SegmentRequest::image(&crop.image)) {
            Ok(run) => log.end_op(
                guard,
                "engine.run",
                Instant::now(),
                output_attrs(run.single()),
            ),
            Err(err) => report.fail(format!("replay failed: {err}")),
        }
    }
    let kernel_delta = inprocess::kernel_delta(kernels_before, kernels.totals());
    let engine_spans = log.take();
    inprocess::engine_layers(
        &mut report,
        &engine_spans,
        &kernel_delta,
        engine.telemetry().peak_matrix_bytes,
    );

    let (before, after) = (&traced.stats_before, &traced.stats_after);
    inprocess::cache_layer(
        &mut report,
        after.cache.hits - before.cache.hits,
        after.cache.misses - before.cache.misses,
        after.cache.evictions - before.cache.evictions,
        median(&build_ms),
    );
    inprocess::parallel_layer(&mut report, &plain.measured, plain.ops(false).len() as u64);
    server_layers(&mut report, &traced);
    inprocess::overhead(
        &mut report,
        &traced.ops(false),
        &traced.ops(true),
        &traced.measured,
    );

    let mut spans = client_spans;
    spans.extend(engine_spans);
    if let Err(err) = trace::write_spans(&crate::spans_path(args), &spans) {
        report.fail(format!("writing spans failed: {err}"));
    }
    report
}

/// Requests every crop once more after the timed phase: checks each
/// against its first result, checks one against an in-process engine run
/// (engine↔server equivalence), and scores quality. Returns the mean IoU
/// and the kernel ISA the server reported.
fn score(
    bench: &mut Bench<'_>,
    crops: &[Sample],
    config: &SegHdcConfig,
    report: &mut Report,
) -> (f64, String) {
    let mut client = bench.connect();
    let mut maps = Vec::new();
    let mut kernel_isa = String::new();
    for (image, request) in bench.requests.iter().enumerate() {
        match client.segment(request) {
            Ok(response) => {
                if let ResponseBody::Labels { telemetry, .. } = &response.body {
                    kernel_isa.clone_from(&telemetry.kernel_isa);
                }
                match response.label_map() {
                    Ok(map) => {
                        bench.check_labels(report, image, checksum(map.as_raw()));
                        maps.push((image, map));
                    }
                    Err(err) => report.fail(format!("crop {image}: scoring request failed: {err}")),
                }
            }
            Err(err) => report.fail(format!("crop {image}: scoring request failed: {err}")),
        }
    }
    let engine = SegEngine::new(config.clone()).expect("edge configuration is valid");
    match (
        engine.run(&SegmentRequest::image(&crops[0].image)),
        maps.iter().find(|(image, _)| *image == 0),
    ) {
        (Ok(run), Some((_, served))) => report.check(run.single().label_map == *served, || {
            "crop 0: served labels differ from an in-process engine run".to_string()
        }),
        (Err(err), _) => report.fail(format!("in-process reference run failed: {err}")),
        (_, None) => report.fail("crop 0 was not served".to_string()),
    }
    let quality = inprocess::mean_iou(maps.iter().map(|(image, map)| (map, &crops[*image])));
    (quality, kernel_isa)
}

/// The measured share of cold requests and of fused requests.
fn print_shares(phase: &Phase) {
    let cold = phase.outcomes.iter().filter(|o| o.cold).count();
    let (before, after) = (&phase.stats_before.server, &phase.stats_after.server);
    println!(
        "shares: cold {cold}/{} requests, fused {}/{} admitted, cache misses {}",
        phase.outcomes.len(),
        after.fused_requests - before.fused_requests,
        after.admitted - before.admitted,
        phase.stats_after.cache.misses - phase.stats_before.cache.misses,
    );
}

/// Wire, queue, shard and server metrics of the traced half: response
/// metrics over its traced requests, `STATS` deltas over all of it. Checks
/// the client-side ledger: each round trip covers the server's queue wait
/// and service time, and the rest is wire transit.
fn server_layers(report: &mut Report, phase: &Phase) {
    let ok: Vec<&Outcome> = phase.outcomes.iter().filter(|o| o.ok && o.traced).collect();
    let count = ok.len().max(1) as f64;
    let (mut rtt_us, mut wait_us, mut service_us, mut transit_us, mut bytes) = (0, 0, 0, 0, 0);
    for o in &ok {
        let rtt = o.rtt.as_micros() as u64;
        let server = o.queue_wait_us + o.service_us;
        report.check(server <= rtt, || {
            format!(
                "crop {}: server time {server} us exceeds the round trip {rtt} us",
                o.image
            )
        });
        rtt_us += rtt;
        wait_us += o.queue_wait_us;
        service_us += o.service_us;
        transit_us += rtt.saturating_sub(server);
        bytes += o.wire_bytes;
    }
    let sum = transit_us + wait_us + service_us;
    report.check(sum == rtt_us, || {
        format!("wire ledger does not reconcile: {sum} us vs round trip {rtt_us} us")
    });
    let per_op = |us: u64| us as f64 / 1e3 / count;
    println!(
        "ledger: client.segment {:.4} ms = wire.transit {:.4} + queue.wait {:.4} + server.service {:.4} per request over {} requests (residual {} us)",
        per_op(rtt_us),
        per_op(transit_us),
        per_op(wait_us),
        per_op(service_us),
        ok.len(),
        rtt_us as i128 - sum as i128,
    );
    let waits: Vec<f64> = ok.iter().map(|o| o.queue_wait_us as f64 / 1e3).collect();
    let services: Vec<f64> = ok.iter().map(|o| o.service_us as f64 / 1e3).collect();
    let (before, after) = (&phase.stats_before, &phase.stats_after);
    let shard_delta = |f: fn(&seghdc_server::WireShardStats) -> u64| {
        after.shards.iter().map(f).sum::<u64>() - before.shards.iter().map(f).sum::<u64>()
    };
    let (s0, s1) = (&before.server, &after.server);
    let rejected =
        (s1.responses_busy + s1.responses_deadline + s1.responses_invalid + s1.responses_internal)
            - (s0.responses_busy
                + s0.responses_deadline
                + s0.responses_invalid
                + s0.responses_internal);

    report.metric("wire.transit_ms", per_op(transit_us), "ms");
    report.metric("wire.bytes_per_op", bytes as f64 / count, "B");
    report.metric("queue.wait_ms_p50", quantile(&waits, 0.5), "ms");
    report.metric("queue.wait_ms_p90", quantile(&waits, 0.9), "ms");
    report.metric("shard.spilled", shard_delta(|s| s.spilled) as f64, "count");
    report.metric("shard.stolen", shard_delta(|s| s.stolen) as f64, "count");
    report.metric("server.service_ms_p50", quantile(&services, 0.5), "ms");
    report.metric("server.service_ms_p90", quantile(&services, 0.9), "ms");
    report.metric(
        "server.fused_share",
        ratio(
            (s1.fused_requests - s0.fused_requests) as f64,
            (s1.admitted - s0.admitted) as f64,
        ),
        "ratio",
    );
    report.metric(
        "server.coalesced",
        (s1.fused_coalesced - s0.fused_coalesced) as f64,
        "count",
    );
    report.metric("server.rejected", rejected as f64, "count");
}
