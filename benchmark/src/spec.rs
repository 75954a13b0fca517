//! The fixed names and sizes of the benchmark: workloads, end-to-end
//! metrics with their bounds, and per-layer metrics with their units.
//! `BENCHMARK.json` repeats these tables; a unit test keeps the two equal.

/// What a workload's child does.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Kind {
    /// Load `n` generated records onto a `p`-disk farm and time `train`.
    Train {
        /// Training records.
        n: usize,
        /// Simulated processors (= rank threads).
        p: usize,
        /// Real files instead of RAM behind the farm.
        on_disk: bool,
        /// Timed `train` calls per child, each on a freshly loaded farm.
        reps: usize,
    },
    /// Train a model, stage requests once, time `serve` passes over them.
    Serve {
        /// Records the model is trained on.
        model_n: usize,
        /// Requests staged on the farm.
        requests: usize,
        /// Simulated processors.
        p: usize,
        /// Records per scoring batch.
        batch: usize,
        /// Untimed passes before the timed ones.
        warmup: usize,
        /// Timed passes per child.
        passes: usize,
    },
}

/// One workload: a name, its inputs and the reason it exists.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Workload {
    /// Name used on the command line and in every report.
    pub name: &'static str,
    /// Inputs.
    pub kind: Kind,
    /// One line on why the workload was chosen.
    pub why: &'static str,
}

/// The four workloads, in round-robin order.
pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "train_mem_p4",
        kind: Kind::Train { n: 1_800_000, p: 4, on_disk: false, reps: 1 },
        why: "1.8M records, p=4, RAM farm: clouds kernels + pclouds scans + pario streaming do the work, cgm a few percent",
    },
    Workload {
        name: "train_wide_p64",
        kind: Kind::Train { n: 90_000, p: 64, on_disk: false, reps: 5 },
        why: "90k records, p=64: 220k small messages, cgm executor/mailbox/collectives/Wire are most of the wall, kernels idle",
    },
    Workload {
        name: "train_file_p4",
        kind: Kind::Train { n: 1_800_000, p: 4, on_disk: true, reps: 1 },
        why: "train_mem_p4 on real files: same tree and virt_s, only pario's backend differs; resident set below the data size",
    },
    Workload {
        name: "serve_flat_p4",
        kind: Kind::Serve { model_n: 360_000, requests: 3_600_000, p: 4, batch: 1024, warmup: 2, passes: 30 },
        why: "3.6M requests through the flat scorer, p=4: read-only pario streaming + serve scoring + one broadcast; training is set-up",
    },
];

impl Workload {
    /// Workload by name.
    pub fn by_name(name: &str) -> Option<&'static Workload> {
        WORKLOADS.iter().find(|w| w.name == name)
    }

    /// The same workload with every record count divided by `div`
    /// (`--smoke`); numbers at another size are not comparable.
    pub fn scaled(&self, div: usize) -> Workload {
        let kind = match self.kind {
            Kind::Train {
                n,
                p,
                on_disk,
                reps,
            } => Kind::Train {
                n: n / div,
                p,
                on_disk,
                reps,
            },
            Kind::Serve {
                model_n,
                requests,
                p,
                batch,
                warmup,
                passes,
            } => Kind::Serve {
                model_n: model_n / div,
                requests: requests / div,
                p,
                batch,
                warmup,
                passes,
            },
        };
        Workload { kind, ..*self }
    }

    /// Records one timed repetition processes (the numerator of
    /// `rec_per_s`).
    pub fn records_per_rep(&self) -> usize {
        match self.kind {
            Kind::Train { n, .. } => n,
            Kind::Serve { requests, .. } => requests,
        }
    }
}

/// An end-to-end metric: what a user of the system sees.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
    /// Relative worsening of the median that counts as a regression.
    pub bound: f64,
}

/// The four end-to-end metrics, the same on every workload. Each bound is
/// at least three times the widest ten-seed spread of identical code on
/// the builder's 2-core virtual machine, or the contract's maximum of 0.25
/// where that machine's phases (up to ± 15 % over tens of minutes) would
/// need more (see `NOISE.md`).
pub const END_TO_END: [EndToEnd; 4] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "rec_per_s",
        unit: "1/s",
        better: "higher",
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: "lower",
        bound: 0.20,
    },
    EndToEnd {
        name: "virt_s",
        unit: "s",
        better: "lower",
        bound: 0.15,
    },
];

/// `(name, unit, better)` of every per-layer metric. The first block comes
/// from the probes and is the same on every workload; the second describes
/// the workload's own `train` call and its traced round.
pub const PER_LAYER: [(&str, &str, &str); 50] = [
    ("datagen.stream.rec_per_s", "1/s", "higher"),
    ("pclouds.load.rec_per_s", "1/s", "higher"),
    ("pclouds.load.file.rec_per_s", "1/s", "higher"),
    ("pario.mem.append_mb_per_s", "MB/s", "higher"),
    ("pario.mem.scan_mb_per_s", "MB/s", "higher"),
    ("pario.file.append_mb_per_s", "MB/s", "higher"),
    ("pario.file.scan_mb_per_s", "MB/s", "higher"),
    ("pario.redistribute.rec_per_s", "1/s", "higher"),
    ("cgm.run.us_per_rank", "us", "lower"),
    ("cgm.p2p.msgs_per_s.p64", "1/s", "higher"),
    ("cgm.allreduce.small.ops_per_s.p64", "1/s", "higher"),
    ("cgm.allreduce.hist.mb_per_s.p4", "MB/s", "higher"),
    ("cgm.wire.vec_u64.mb_per_s", "MB/s", "higher"),
    ("clouds.stats.ns_per_rec", "ns", "lower"),
    ("clouds.direct.ns_per_rec", "ns", "lower"),
    ("clouds.build.rec_per_s", "1/s", "higher"),
    ("dnc.sort.rec_per_s", "1/s", "higher"),
    ("serve.score.flat.ns_per_rec", "ns", "lower"),
    ("serve.score.pointer.ns_per_rec", "ns", "lower"),
    ("serve.compile.us", "us", "lower"),
    ("serve.stage.rec_per_s", "1/s", "higher"),
    ("serve.pass_ms.p50", "ms", "lower"),
    ("serve.pass_ms.p90", "ms", "lower"),
    ("ensemble.train.trees_per_s", "1/s", "higher"),
    ("host.nproc", "count", "higher"),
    ("host.calib_s", "s", "lower"),
    ("host.loadavg_start", "count", "lower"),
    ("host.loadavg_end", "count", "lower"),
    ("pclouds.train.wall_s.p50", "s", "lower"),
    ("pclouds.train.wall_s.q1", "s", "lower"),
    ("pclouds.train.wall_s.q3", "s", "lower"),
    ("pclouds.train.cpu_s", "s", "lower"),
    ("pclouds.train.cores_busy", "count", "higher"),
    ("cgm.msgs", "count", "lower"),
    ("cgm.bytes_mb", "MB", "lower"),
    ("cgm.host_us_per_msg", "us", "lower"),
    ("pario.disk_read_mb", "MB", "lower"),
    ("pario.disk_write_mb", "MB", "lower"),
    ("pclouds.tree_nodes", "count", "lower"),
    ("pclouds.tree_depth", "count", "lower"),
    ("virt.pclouds.stats_s", "s", "lower"),
    ("virt.pclouds.attr_scan_s", "s", "lower"),
    ("virt.pclouds.derive_s", "s", "lower"),
    ("virt.pclouds.partition_s", "s", "lower"),
    ("virt.pclouds.small_redistribute_s", "s", "lower"),
    ("virt.pclouds.small_solve_s", "s", "lower"),
    ("virt.cgm.collectives_s", "s", "lower"),
    ("virt.pario.io_s", "s", "lower"),
    ("virt.dnc.driver_s", "s", "lower"),
    ("trace_overhead", "ratio", "lower"),
];

/// Simulated-time groups of the traced round: metric name and the span
/// names (exact, or a `prefix.` ending in a dot) whose self-seconds it
/// sums on the slowest rank. Every span the library opens during `train`
/// falls in exactly one group, so the groups add up to `virt_s`.
pub const VIRT_GROUPS: [(&str, &str); 9] = [
    ("virt.pclouds.stats_s", "pclouds.stats"),
    ("virt.pclouds.attr_scan_s", "pclouds.attr_scan"),
    ("virt.pclouds.derive_s", "pclouds.derive"),
    ("virt.pclouds.partition_s", "pclouds.partition"),
    (
        "virt.pclouds.small_redistribute_s",
        "pclouds.small_redistribute",
    ),
    ("virt.pclouds.small_solve_s", "pclouds.small_solve"),
    ("virt.cgm.collectives_s", "cgm."),
    ("virt.pario.io_s", "pario."),
    ("virt.dnc.driver_s", "dnc."),
];

/// The group a library span name falls in.
pub fn virt_group(span: &str) -> Option<&'static str> {
    VIRT_GROUPS
        .iter()
        .find(|(_, pat)| {
            if pat.ends_with('.') {
                span.starts_with(pat)
            } else {
                span == *pat
            }
        })
        .map(|(metric, _)| *metric)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;
    use std::collections::BTreeSet;

    fn well_formed(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    #[test]
    fn names_are_well_formed_and_unique() {
        let mut seen = BTreeSet::new();
        let names = WORKLOADS
            .iter()
            .map(|w| w.name)
            .chain(END_TO_END.iter().map(|m| m.name))
            .chain(PER_LAYER.iter().map(|m| m.0));
        for name in names {
            assert!(well_formed(name), "bad name {name:?}");
            assert!(seen.insert(name), "duplicate name {name:?}");
        }
        for (metric, _) in VIRT_GROUPS {
            assert!(
                PER_LAYER.iter().any(|m| m.0 == metric),
                "{metric} is not a per-layer metric"
            );
        }
    }

    #[test]
    fn library_span_names_fall_in_one_group() {
        assert_eq!(virt_group("pclouds.stats"), Some("virt.pclouds.stats_s"));
        assert_eq!(
            virt_group("cgm.allreduce.rsag"),
            Some("virt.cgm.collectives_s")
        );
        assert_eq!(virt_group("pario.redistribute"), Some("virt.pario.io_s"));
        assert_eq!(virt_group("dnc.run"), Some("virt.dnc.driver_s"));
        assert_eq!(virt_group("serve.score"), None);
    }

    #[test]
    fn tables_are_exactly_the_set_in_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json"))
            .expect("valid JSON");
        let field = |v: &Json, k: &str| {
            v.get(k)
                .and_then(Json::as_str)
                .unwrap_or_default()
                .to_string()
        };
        let rows = |key: &str| {
            doc.get(key)
                .and_then(Json::as_arr)
                .unwrap_or_default()
                .to_vec()
        };

        let workloads: Vec<(String, String)> = rows("workloads")
            .iter()
            .map(|w| (field(w, "name"), field(w, "why")))
            .collect();
        let expected: Vec<(String, String)> = WORKLOADS
            .iter()
            .map(|w| (w.name.to_string(), w.why.to_string()))
            .collect();
        assert_eq!(workloads, expected);
        assert!(WORKLOADS
            .iter()
            .all(|w| w.why.len() <= 200 && !w.why.contains('\n')));

        let e2e: Vec<(String, String, String, f64)> = rows("end_to_end")
            .iter()
            .map(|m| {
                let bound = m.get("bound").and_then(Json::as_f64).unwrap_or(f64::NAN);
                (
                    field(m, "name"),
                    field(m, "unit"),
                    field(m, "better"),
                    bound,
                )
            })
            .collect();
        let expected: Vec<(String, String, String, f64)> = END_TO_END
            .iter()
            .map(|m| (m.name.into(), m.unit.into(), m.better.into(), m.bound))
            .collect();
        assert_eq!(e2e, expected);

        let layers: Vec<(String, String, String)> = rows("per_layer")
            .iter()
            .map(|m| (field(m, "name"), field(m, "unit"), field(m, "better")))
            .collect();
        let expected: Vec<(String, String, String)> = PER_LAYER
            .iter()
            .map(|m| (m.0.into(), m.1.into(), m.2.into()))
            .collect();
        assert_eq!(layers, expected);
    }
}
