//! Processor groups: the substrate of **task parallelism**, where
//! "processors are divided into subgroups and subtasks are assigned to
//! processor subgroups based on the cost of processing each subtask".
//!
//! A [`Group`] is an ordered set of global ranks. It has no collectives of
//! its own: [`crate::Proc::scoped`] runs any code written against the
//! machine — every collective included — over a group, with local ranks
//! translated to global ranks at the wire; processors outside the group do
//! not participate.

/// An ordered subgroup of the machine's processors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Group {
    members: Vec<usize>,
}

impl Group {
    /// Group of explicit global ranks (must be non-empty, sorted, unique).
    pub fn new(members: Vec<usize>) -> Group {
        assert!(!members.is_empty(), "a group needs at least one member");
        assert!(
            members.windows(2).all(|w| w[0] < w[1]),
            "group members must be sorted and unique"
        );
        Group { members }
    }

    /// The whole machine.
    pub fn world(p: usize) -> Group {
        Group {
            members: (0..p).collect(),
        }
    }

    /// Number of members.
    pub fn size(&self) -> usize {
        self.members.len()
    }

    /// The member ranks.
    pub fn members(&self) -> &[usize] {
        &self.members
    }

    /// Global rank of local rank `local`.
    pub fn global(&self, local: usize) -> usize {
        self.members[local]
    }

    /// Local rank of a global rank, if a member.
    pub fn local(&self, global: usize) -> Option<usize> {
        self.members.binary_search(&global).ok()
    }

    /// Is `global` a member?
    pub fn contains(&self, global: usize) -> bool {
        self.local(global).is_some()
    }

    /// Split the group into two subgroups whose sizes are proportional to
    /// `left_cost : right_cost` (each side gets at least one processor).
    /// The paper assigns "subtasks to processor subgroups based on the cost
    /// of processing each subtask".
    pub fn split_by_cost(&self, left_cost: f64, right_cost: f64) -> (Group, Group) {
        assert!(self.size() >= 2, "cannot split a group of one");
        let total = (left_cost + right_cost).max(f64::MIN_POSITIVE);
        let ideal = self.size() as f64 * left_cost / total;
        let left_n = (ideal.round() as usize).clamp(1, self.size() - 1);
        let (l, r) = self.members.split_at(left_n);
        (Group::new(l.to_vec()), Group::new(r.to_vec()))
    }

    /// Split the group into `costs.len()` contiguous subgroups whose sizes
    /// are proportional to the costs, each subgroup getting at least one
    /// processor. Generalizes [`Group::split_by_cost`] to k ways; the
    /// ensemble scheduler uses it to carve the machine into one subgroup
    /// per concurrent tree queue.
    ///
    /// Apportionment is largest-remainder over the non-reserved seats with
    /// ties broken toward the lower index, so the result is deterministic.
    /// All-zero (or negative-free degenerate) costs split as evenly as
    /// possible. Panics when `costs` is empty or the group has fewer
    /// members than costs.
    pub fn split_k_by_cost(&self, costs: &[f64]) -> Vec<Group> {
        let k = costs.len();
        assert!(k >= 1, "split_k_by_cost needs at least one cost");
        assert!(
            self.size() >= k,
            "cannot split {} member(s) into {k} subgroups",
            self.size()
        );
        let total: f64 = costs.iter().sum();
        let weights: Vec<f64> = if total > 0.0 {
            costs.iter().map(|c| c.max(0.0) / total).collect()
        } else {
            vec![1.0 / k as f64; k]
        };
        // Every subgroup is seeded with one member; the remaining seats go
        // out proportionally, floor first, then by largest remainder.
        let spare = self.size() - k;
        let ideal: Vec<f64> = weights.iter().map(|w| w * spare as f64).collect();
        let mut sizes: Vec<usize> = ideal.iter().map(|x| x.floor() as usize).collect();
        let mut left = spare - sizes.iter().sum::<usize>();
        let mut order: Vec<usize> = (0..k).collect();
        order.sort_by(|&a, &b| {
            let (fa, fb) = (ideal[a] - ideal[a].floor(), ideal[b] - ideal[b].floor());
            fb.partial_cmp(&fa).unwrap().then(a.cmp(&b))
        });
        for &i in &order {
            if left == 0 {
                break;
            }
            sizes[i] += 1;
            left -= 1;
        }
        let mut out = Vec::with_capacity(k);
        let mut at = 0;
        for s in sizes {
            let n = 1 + s;
            out.push(Group::new(self.members[at..at + n].to_vec()));
            at += n;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_lookup() {
        let g = Group::new(vec![1, 3, 6]);
        assert_eq!(g.size(), 3);
        assert_eq!(g.global(1), 3);
        assert_eq!(g.local(6), Some(2));
        assert_eq!(g.local(2), None);
        assert!(g.contains(1));
        assert!(!g.contains(0));
    }

    #[test]
    fn world_is_everyone() {
        let g = Group::world(4);
        assert_eq!(g.members(), &[0, 1, 2, 3]);
    }

    #[test]
    fn split_by_cost_is_proportional() {
        let g = Group::world(8);
        let (l, r) = g.split_by_cost(3.0, 1.0);
        assert_eq!(l.size(), 6);
        assert_eq!(r.size(), 2);
        // Degenerate costs still give non-empty sides.
        let (l, r) = g.split_by_cost(1.0, 0.0);
        assert_eq!((l.size(), r.size()), (7, 1));
        let (l, r) = g.split_by_cost(0.0, 0.0);
        assert!(l.size() >= 1 && r.size() >= 1);
    }

    #[test]
    #[should_panic(expected = "sorted and unique")]
    fn unsorted_members_rejected() {
        Group::new(vec![2, 1]);
    }
}
