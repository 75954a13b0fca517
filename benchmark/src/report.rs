//! The child protocol: what one fresh child process measured, as the one
//! JSON line it prints on its standard output.

use crate::json::Json;
use crate::spans::HostSpan;

/// Facts about the `train` calls a child made: the timed ones on a
/// `train_*` workload, the model training in set-up on `serve_flat_p4`.
/// Everything but the times repeats exactly for a seed.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TrainFacts {
    /// Host wall seconds of each call.
    pub wall_s: Vec<f64>,
    /// Process CPU seconds (user + system) summed over the calls.
    pub cpu_s: f64,
    /// Simulated seconds of one call (`TrainOutput::runtime`).
    pub virt_s: f64,
    /// Messages sent, all ranks, one call.
    pub msgs: u64,
    /// Bytes sent, all ranks, one call.
    pub bytes: u64,
    /// Bytes read from the simulated disks, one call.
    pub disk_read_bytes: u64,
    /// Bytes written to the simulated disks, one call.
    pub disk_write_bytes: u64,
    /// Nodes of the trained tree.
    pub tree_nodes: u64,
    /// Depth of the trained tree.
    pub tree_depth: u64,
    /// FNV-1a hash of the tree's `Wire` bytes.
    pub tree_hash: u64,
}

impl TrainFacts {
    /// What must repeat exactly for a seed — everything but the times:
    /// simulated seconds bit for bit, every count, the tree.
    pub fn outputs(&self) -> (u64, [u64; 6], u64) {
        (
            self.virt_s.to_bits(),
            [
                self.msgs,
                self.bytes,
                self.disk_read_bytes,
                self.disk_write_bytes,
                self.tree_nodes,
                self.tree_depth,
            ],
            self.tree_hash,
        )
    }
}

/// Everything one child reports.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ChildReport {
    /// Workload name.
    pub workload: String,
    /// OS process id of the child.
    pub pid: u32,
    /// Whether the simulated machine recorded spans (the traced round).
    pub traced: bool,
    /// Host seconds of each set-up repeat.
    pub setup_s: Vec<f64>,
    /// Host wall seconds of each timed repetition (`train` call or `serve`
    /// pass).
    pub timed_s: Vec<f64>,
    /// Simulated seconds of one timed repetition; identical across
    /// repetitions (the child checks).
    pub virt_s: f64,
    /// `VmHWM` right after the timed region, MB.
    pub peak_rss_mb: f64,
    /// Hold-out accuracy of the tree (train) or the model (serve).
    pub accuracy: f64,
    /// The workload's `train` calls.
    pub train: TrainFacts,
    /// File-system type of the scratch directory (`train_file_p4` only).
    pub scratch_fs: String,
    /// Simulated self-seconds per `virt.*` metric on the slowest rank
    /// (traced round only).
    pub virt_groups: Vec<(String, f64)>,
    /// Host spans of the child (traced round only).
    pub host_spans: Vec<HostSpan>,
}

fn hex(v: u64) -> Json {
    Json::Str(format!("{v:016x}"))
}

fn count(v: u64) -> Json {
    Json::Num(v as f64)
}

impl ChildReport {
    /// The report as one JSON object.
    pub fn to_json(&self) -> Json {
        let t = &self.train;
        Json::obj([
            ("workload", Json::str(&self.workload)),
            ("pid", Json::Num(f64::from(self.pid))),
            ("traced", Json::Bool(self.traced)),
            ("setup_s", Json::nums(&self.setup_s)),
            ("timed_s", Json::nums(&self.timed_s)),
            ("virt_s", Json::Num(self.virt_s)),
            ("peak_rss_mb", Json::Num(self.peak_rss_mb)),
            ("accuracy", Json::Num(self.accuracy)),
            (
                "train",
                Json::obj([
                    ("wall_s", Json::nums(&t.wall_s)),
                    ("cpu_s", Json::Num(t.cpu_s)),
                    ("virt_s", Json::Num(t.virt_s)),
                    ("msgs", count(t.msgs)),
                    ("bytes", count(t.bytes)),
                    ("disk_read_bytes", count(t.disk_read_bytes)),
                    ("disk_write_bytes", count(t.disk_write_bytes)),
                    ("tree_nodes", count(t.tree_nodes)),
                    ("tree_depth", count(t.tree_depth)),
                    ("tree_hash", hex(t.tree_hash)),
                ]),
            ),
            ("scratch_fs", Json::str(&self.scratch_fs)),
            (
                "virt_groups",
                Json::obj(
                    self.virt_groups
                        .iter()
                        .map(|(k, v)| (k.as_str(), Json::Num(*v))),
                ),
            ),
            (
                "host_spans",
                Json::Arr(self.host_spans.iter().map(HostSpan::to_json).collect()),
            ),
        ])
    }

    /// Parse a child's output line; `Err` names the first missing member.
    pub fn from_json(v: &Json) -> Result<ChildReport, String> {
        fn member<'a>(o: &'a Json, k: &str) -> Result<&'a Json, String> {
            o.get(k).ok_or(format!("child report lacks `{k}`"))
        }
        fn num(o: &Json, k: &str) -> Result<f64, String> {
            member(o, k)?
                .as_f64()
                .ok_or(format!("`{k}` is not a number"))
        }
        fn nums(o: &Json, k: &str) -> Result<Vec<f64>, String> {
            member(o, k)?
                .as_arr()
                .ok_or(format!("`{k}` is not an array"))?
                .iter()
                .map(|x| x.as_f64().ok_or(format!("`{k}` holds a non-number")))
                .collect()
        }
        fn text(o: &Json, k: &str) -> Result<String, String> {
            let s = member(o, k)?.as_str();
            Ok(s.ok_or(format!("`{k}` is not a string"))?.to_string())
        }
        // Counts are far below 2^53, so the f64 round trip is exact.
        fn whole(o: &Json, k: &str) -> Result<u64, String> {
            num(o, k).map(|x| x as u64)
        }

        let t = member(v, "train")?;
        let tree_hash = u64::from_str_radix(&text(t, "tree_hash")?, 16)
            .map_err(|e| format!("tree_hash: {e}"))?;
        let train = TrainFacts {
            wall_s: nums(t, "wall_s")?,
            cpu_s: num(t, "cpu_s")?,
            virt_s: num(t, "virt_s")?,
            msgs: whole(t, "msgs")?,
            bytes: whole(t, "bytes")?,
            disk_read_bytes: whole(t, "disk_read_bytes")?,
            disk_write_bytes: whole(t, "disk_write_bytes")?,
            tree_nodes: whole(t, "tree_nodes")?,
            tree_depth: whole(t, "tree_depth")?,
            tree_hash,
        };
        let virt_groups = member(v, "virt_groups")?
            .as_obj()
            .ok_or("`virt_groups` is not an object")?
            .iter()
            .map(|(k, x)| {
                x.as_f64()
                    .map(|x| (k.clone(), x))
                    .ok_or(format!("virt group `{k}` is not a number"))
            })
            .collect::<Result<_, _>>()?;
        let host_spans = member(v, "host_spans")?
            .as_arr()
            .ok_or("`host_spans` is not an array")?
            .iter()
            .map(|s| HostSpan::from_json(s).ok_or("malformed host span".to_string()))
            .collect::<Result<_, _>>()?;
        Ok(ChildReport {
            workload: text(v, "workload")?,
            pid: num(v, "pid")? as u32,
            traced: member(v, "traced")?
                .as_bool()
                .ok_or("`traced` is not a boolean")?,
            setup_s: nums(v, "setup_s")?,
            timed_s: nums(v, "timed_s")?,
            virt_s: num(v, "virt_s")?,
            peak_rss_mb: num(v, "peak_rss_mb")?,
            accuracy: num(v, "accuracy")?,
            train,
            scratch_fs: text(v, "scratch_fs")?,
            virt_groups,
            host_spans,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    pub(crate) fn sample() -> ChildReport {
        ChildReport {
            workload: "train_mem_p4".into(),
            pid: 4242,
            traced: true,
            setup_s: vec![1.25, 1.3125],
            timed_s: vec![4.000000000000001],
            virt_s: 123.45678901234567,
            peak_rss_mb: 271.5,
            accuracy: 0.9987,
            train: TrainFacts {
                wall_s: vec![4.000000000000001],
                cpu_s: 7.71,
                virt_s: 123.45678901234567,
                msgs: 5_412,
                bytes: 98_765_432_101,
                disk_read_bytes: 1 << 40,
                disk_write_bytes: 3,
                tree_nodes: 1645,
                tree_depth: 24,
                tree_hash: 0xfeed_face_cafe_beef,
            },
            scratch_fs: "tmpfs".into(),
            virt_groups: vec![
                ("virt.pclouds.stats_s".into(), 0.1),
                ("virt.dnc.driver_s".into(), 2e-9),
            ],
            host_spans: vec![HostSpan {
                name: "pclouds.train".into(),
                start_us: 1.7e15,
                end_us: 1.7e15 + 4e6,
                parent: None,
            }],
        }
    }

    #[test]
    fn child_protocol_round_trips() {
        let report = sample();
        let line = report.to_json().to_line();
        assert!(!line.contains('\n'));
        let back = ChildReport::from_json(&Json::parse(&line).unwrap()).unwrap();
        assert_eq!(back, report);
        assert_eq!(back.virt_s.to_bits(), report.virt_s.to_bits());
    }

    #[test]
    fn missing_members_are_named() {
        let err = ChildReport::from_json(&Json::obj([("workload", Json::str("x"))])).unwrap_err();
        assert!(err.contains("train"), "{err}");
    }
}
