//! Per-layer probes: one public function of one crate, timed from outside
//! on fixed inputs. They run once, after the rounds, in the runner process.
//!
//! Every probe repeats until it has run for [`MIN_SECONDS`] and
//! [`MIN_REPS`] times (three times when a single repetition is longer than
//! the time floor) and reports the median. Inputs are sized for the time
//! cap, not for the workloads: a probe says how fast a layer is, the
//! workloads say how much of it a run needs.

use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

use pdc_cgm::{Cluster, Wire};
use pdc_clouds::{accumulate_stats, build_tree, direct_best_split};
use pdc_datagen::{Record, RecordStream};
use pdc_dnc::problems::sort::OocSort;
use pdc_dnc::Strategy;
use pdc_ensemble::{train_ensemble, EnsembleConfig};
use pdc_pario::{redistribute, BackendKind, DiskFarm, EngineConfig, Rec};
use pdc_pclouds::{load_dataset_stream, train};
use pdc_serve::{serve, stage_requests, Layout, Predictor, ServeConfig};

use crate::stats::{median, percentile};
use crate::workloads::{generator, train_config, ScratchDir, REQUEST_SEED_XOR};

const MIN_SECONDS: f64 = 0.3;
const MIN_REPS: usize = 5;
const MIN_LONG_REPS: usize = 3;

/// Call `once` (which returns the seconds it measured) until the floors
/// are met; all samples.
fn repeat(mut once: impl FnMut() -> f64) -> Vec<f64> {
    let mut samples = Vec::new();
    let mut total = 0.0;
    loop {
        let s = once();
        total += s;
        samples.push(s);
        let enough_reps = samples.len() >= MIN_REPS
            || (samples.len() >= MIN_LONG_REPS && total >= MIN_REPS as f64 * MIN_SECONDS);
        if total >= MIN_SECONDS && enough_reps {
            return samples;
        }
    }
}

fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let value = f();
    (value, start.elapsed().as_secs_f64())
}

/// Median seconds of `f` under the repeat rule.
fn median_seconds(mut f: impl FnMut()) -> f64 {
    median(&repeat(|| timed(&mut f).1))
}

const MB: f64 = 1e6;

/// Run every probe; `(metric name, value)` in `spec::PER_LAYER` order.
/// `div` shrinks the inputs for `--smoke`.
pub fn run_all(seed: u64, scratch: &Path, div: usize) -> Result<Vec<(&'static str, f64)>, String> {
    let mut out = Vec::new();
    let n = 1_000_000 / div;
    let record_mb = (n * Record::ENCODED_BYTES) as f64 / MB;

    // datagen
    let mut records: Vec<Record> = Vec::new();
    let s = median_seconds(|| records = RecordStream::new(generator(seed)).take(n).collect());
    out.push(("datagen.stream.rec_per_s", n as f64 / s));
    let config = train_config(n);

    // pclouds loader, RAM and real files, from resident records
    let s = median_seconds(|| {
        let farm = DiskFarm::with_engine(4, BackendKind::InMemory, &EngineConfig::disabled());
        black_box(load_dataset_stream(
            &farm,
            records.iter().copied(),
            config.clouds.sample_size,
            config.clouds.sample_seed,
        ));
    });
    out.push(("pclouds.load.rec_per_s", n as f64 / s));
    let dir = ScratchDir::create(scratch, 0)?;
    let on_disk = BackendKind::OnDisk(dir.path().to_path_buf());
    let s = median_seconds(|| {
        let farm = DiskFarm::with_engine(4, on_disk.clone(), &EngineConfig::disabled());
        black_box(load_dataset_stream(
            &farm,
            records.iter().copied(),
            config.clouds.sample_size,
            config.clouds.sample_seed,
        ));
    });
    out.push(("pclouds.load.file.rec_per_s", n as f64 / s));

    // pario: charged append and chunked scan of one file on one rank, in
    // the chunk size training streams with
    let chunk = train_config(1_800_000).chunk_records(Record::ENCODED_BYTES);
    for (kind, append_name, scan_name) in [
        (
            BackendKind::InMemory,
            "pario.mem.append_mb_per_s",
            "pario.mem.scan_mb_per_s",
        ),
        (
            on_disk.clone(),
            "pario.file.append_mb_per_s",
            "pario.file.scan_mb_per_s",
        ),
    ] {
        let mut appends = Vec::new();
        let scans = repeat(|| {
            let farm = DiskFarm::new(1, kind.clone());
            let run = Cluster::new(1).run(|proc| {
                let mut disk = farm.lock(0);
                let file = disk.create::<Record>("probe");
                let ((), append_s) = timed(|| {
                    for part in records.chunks(chunk) {
                        disk.append(proc, &file, part);
                    }
                });
                let mut reader = disk.reader(&file, chunk);
                let ((), scan_s) = timed(|| {
                    while let Some(part) = reader.next_chunk(&mut disk, proc) {
                        black_box(part);
                    }
                });
                (append_s, scan_s)
            });
            appends.push(run.results[0].0);
            run.results[0].1
        });
        out.push((append_name, record_mb / median(&appends)));
        out.push((scan_name, record_mb / median(&scans)));
    }

    // pario redistribute, p = 4: read, personalised all-to-all, write
    let s = median(&repeat(|| {
        let farm = DiskFarm::new(4, BackendKind::InMemory);
        black_box(load_dataset_stream(
            &farm,
            records.iter().copied(),
            2_000,
            1,
        ));
        let names: Vec<String> = farm.lock(0).file_names();
        let src_name = names
            .first()
            .expect("the loader created the root file")
            .clone();
        timed(|| {
            Cluster::new(4).run(|proc| {
                let (src, dst) = {
                    let mut disk = farm.lock(proc.rank());
                    (
                        disk.open::<Record>(&src_name),
                        disk.create::<Record>("moved"),
                    )
                };
                redistribute(proc, &farm, &src, &dst, chunk, |r| {
                    r.numeric[2] as usize % 4
                })
            })
        })
        .1
    }));
    out.push(("pario.redistribute.rec_per_s", n as f64 / s));

    // cgm: rank start-up, many small messages, collectives, Wire
    let s = median_seconds(|| {
        black_box(Cluster::new(64).run(|proc| proc.rank()));
    });
    out.push(("cgm.run.us_per_rank", s * 1e6 / 64.0));
    let rounds = 200 / div.min(10);
    let s = median_seconds(|| {
        Cluster::new(64).run(|proc| {
            let (p, me) = (proc.nprocs(), proc.rank());
            let payload = [me as u64; 7]; // 8-byte length + 56 = 64 bytes on the wire
            for _ in 0..rounds {
                proc.send((me + 1) % p, 1, &payload.to_vec());
                black_box(proc.recv::<Vec<u64>>((me + p - 1) % p, 1));
            }
        });
    });
    out.push(("cgm.p2p.msgs_per_s.p64", (64 * rounds) as f64 / s));
    let s = median_seconds(|| {
        Cluster::new(64).run(|proc| {
            for _ in 0..rounds {
                black_box(proc.allreduce(proc.rank() as u64, |a, b| a + b));
            }
        });
    });
    out.push(("cgm.allreduce.small.ops_per_s.p64", rounds as f64 / s));
    let hist: Vec<u64> = (0..60_000u64).collect();
    let hist_mb = (hist.len() * 8) as f64 / MB;
    let hist_rounds = 10;
    let s = median_seconds(|| {
        Cluster::new(4).run(|proc| {
            for _ in 0..hist_rounds {
                black_box(proc.allreduce(hist.clone(), |mut a, b| {
                    a.iter_mut().zip(&b).for_each(|(x, y)| *x += y);
                    a
                }));
            }
        });
    });
    out.push((
        "cgm.allreduce.hist.mb_per_s.p4",
        hist_rounds as f64 * hist_mb / s,
    ));
    let s = median_seconds(|| {
        for _ in 0..20 {
            let bytes = black_box(&hist).to_bytes();
            black_box(Vec::<u64>::from_bytes(&bytes).expect("round trip"));
        }
    });
    out.push(("cgm.wire.vec_u64.mb_per_s", 20.0 * hist_mb / s));

    // clouds kernels, single thread
    let stats_n = 200_000 / div;
    let s = median_seconds(|| {
        black_box(accumulate_stats(
            &records[..stats_n],
            &records[..stats_n / 10],
            10_000,
        ));
    });
    out.push(("clouds.stats.ns_per_rec", s * 1e9 / stats_n as f64));
    let direct_n = 20_000 / div.min(4);
    let s = median_seconds(|| {
        black_box(direct_best_split(&records[..direct_n], &config.clouds));
    });
    out.push(("clouds.direct.ns_per_rec", s * 1e9 / direct_n as f64));
    // the plain sequential builder on the same problem pCLOUDS parallelises
    let build_params = train_config(stats_n).clouds;
    let s = median_seconds(|| {
        black_box(build_tree(&records[..stats_n], &build_params));
    });
    out.push(("clouds.build.rec_per_s", stats_n as f64 / s));

    // dnc: the divide-and-conquer driver without CLOUDS kernels
    let keys: Vec<u64> = records.iter().map(|r| r.numeric[0].to_bits()).collect();
    let s = median(&repeat(|| {
        let farm = DiskFarm::new(4, BackendKind::InMemory);
        let meta = OocSort::scatter_input(&farm, &keys);
        timed(|| {
            Cluster::new(4).run(|proc| {
                let problem = OocSort {
                    farm: &farm,
                    chunk_records: 8_192,
                    small_threshold: (keys.len() / 64) as u64,
                    sample_per_proc: 64,
                };
                pdc_dnc::run(proc, &problem, meta, Strategy::Mixed)
            })
        })
        .1
    }));
    out.push(("dnc.sort.rec_per_s", keys.len() as f64 / s));

    // serve: scorers on resident records, compile, stage, whole passes
    let model_n = 90_000 / div;
    let model_config = train_config(model_n);
    let tree = {
        let farm = DiskFarm::new(4, BackendKind::InMemory);
        let root = load_dataset_stream(
            &farm,
            records[..model_n].iter().copied(),
            model_config.clouds.sample_size,
            model_config.clouds.sample_seed,
        );
        train(
            &Cluster::new(4),
            &farm,
            &root,
            &model_config,
            Strategy::Mixed,
        )
        .tree
    };
    for (layout, name) in [
        (Layout::Flat, "serve.score.flat.ns_per_rec"),
        (Layout::Pointer, "serve.score.pointer.ns_per_rec"),
    ] {
        let model = layout.compile(&tree);
        let s = median_seconds(|| {
            Cluster::new(1).run(|proc| {
                let mut classes = Vec::with_capacity(stats_n);
                model.score_batch(proc, &records[..stats_n], &mut classes);
                black_box(classes.len())
            });
        });
        out.push((name, s * 1e9 / stats_n as f64));
    }
    let s = median_seconds(|| {
        black_box(Layout::Flat.compile(&tree));
    });
    out.push(("serve.compile.us", s * 1e6));
    let requests = 360_000 / div;
    let request_gen = generator(seed ^ REQUEST_SEED_XOR);
    let mut farm = DiskFarm::new(4, BackendKind::InMemory);
    let s = median_seconds(|| {
        farm = DiskFarm::new(4, BackendKind::InMemory);
        black_box(stage_requests(&farm, requests as u64, request_gen));
    });
    out.push(("serve.stage.rec_per_s", requests as f64 / s));
    let cluster = Cluster::new(4);
    let serve_config = ServeConfig::new(Layout::Flat, 1024);
    let passes =
        repeat(|| timed(|| black_box(serve(&cluster, &farm, &tree, &serve_config).records)).1);
    out.push(("serve.pass_ms.p50", median(&passes) * 1e3));
    out.push(("serve.pass_ms.p90", percentile(&passes, 90.0) * 1e3));

    // ensemble: 4 bagged trees on p = 8
    let mut ensemble = EnsembleConfig::paper_scaled(model_n as u64);
    ensemble.trees = 4;
    ensemble.base = model_config;
    let s = median_seconds(|| {
        black_box(
            train_ensemble(&records[..model_n], 8, &ensemble)
                .model
                .size(),
        );
    });
    out.push(("ensemble.train.trees_per_s", 4.0 / s));

    Ok(out)
}
