//! The ε-fraction machine-sharing rule of SRPTMS+C (Section V-A).
//!
//! At every slot the alive jobs with unscheduled tasks are ranked by
//! `w_i / U_i(l)`. The machines are then shared, in proportion to their
//! weights, among the *highest-priority* jobs whose weights make up an ε
//! fraction of the total alive weight `W(l)`:
//!
//! ```text
//!            ⎧ w_i·M / (ε·W(l))                        if W_i(l) − w_i ≥ (1−ε)·W(l)
//! g_i(l) =   ⎨ 0                                        if W_i(l) < (1−ε)·W(l)
//!            ⎩ (W_i(l) − (1−ε)·W(l))·M / (ε·W(l))       otherwise
//! ```
//!
//! where `W_i(l)` is the cumulative weight of all jobs with priority *lower
//! than or equal to* job `i` (the set `ψ^s_i(l)` of the paper, which includes
//! `J_i` itself). The fractional shares always sum to `M`; the engine needs
//! integers, so [`epsilon_fraction_shares`] also performs a deterministic
//! largest-remainder rounding that preserves the sum.
//!
//! Setting `ε = 1` recovers Hadoop's fair scheduler (all alive jobs share the
//! cluster in proportion to weight); `ε → 0` degenerates to pure SRPT (only
//! the single most urgent job runs).

use mapreduce_workload::JobId;

/// The machine share assigned to one job by the ε-fraction rule.
#[derive(Debug, Clone, PartialEq)]
pub struct MachineShare {
    /// The job this share belongs to.
    pub job: JobId,
    /// The exact fractional share `g_i(l)`.
    pub fractional: f64,
    /// The integer share after largest-remainder rounding (sums to `M` across
    /// all jobs).
    pub machines: usize,
}

/// Computes the ε-fraction shares for jobs already sorted by *decreasing*
/// priority.
///
/// `jobs` is the priority-ordered list of `(job id, weight)` pairs of the
/// alive jobs with unscheduled tasks (`ψ^s(l)`); `total_machines` is `M`.
///
/// Returns one [`MachineShare`] per input job, in the same order.
///
/// # Panics
/// Panics if `epsilon` is not in `(0, 1]` or any weight is not positive.
pub fn epsilon_fraction_shares(
    jobs: &[(JobId, f64)],
    total_machines: usize,
    epsilon: f64,
) -> Vec<MachineShare> {
    assert!(
        epsilon > 0.0 && epsilon <= 1.0,
        "epsilon must be in (0, 1], got {epsilon}"
    );
    assert!(
        jobs.iter().all(|(_, w)| *w > 0.0),
        "job weights must be positive"
    );
    if jobs.is_empty() || total_machines == 0 {
        return jobs
            .iter()
            .map(|&(job, _)| MachineShare {
                job,
                fractional: 0.0,
                machines: 0,
            })
            .collect();
    }

    let total_weight: f64 = jobs.iter().map(|(_, w)| w).sum();
    let m = total_machines as f64;
    let threshold = (1.0 - epsilon) * total_weight;

    let mut shares = Vec::with_capacity(jobs.len());
    // W_i(l): cumulative weight of jobs with priority <= job i (including i).
    // Jobs are sorted by decreasing priority, so this is the weight of the
    // suffix starting at i.
    let mut suffix_weight = total_weight;
    for &(job, weight) in jobs {
        let w_i = suffix_weight;
        let fractional = if w_i - weight >= threshold {
            weight * m / (epsilon * total_weight)
        } else if w_i < threshold {
            0.0
        } else {
            (w_i - threshold) * m / (epsilon * total_weight)
        };
        shares.push(MachineShare {
            job,
            fractional,
            machines: 0,
        });
        suffix_weight -= weight;
    }

    largest_remainder_round(&mut shares, total_machines, &mut Vec::new());
    shares
}

/// Prefix-truncated variant of [`epsilon_fraction_shares`] for
/// callers that know `W(l)` up front: only the jobs inside the ε-fraction
/// are pulled from the iterator and materialised.
///
/// The ε-fraction rule assigns **exactly zero** machines to every job whose
/// cumulative suffix weight `W_i(l)` falls below `(1−ε)·W(l)`, and the suffix
/// weights strictly decrease along the priority order — so once the walk
/// crosses the threshold, every remaining share is zero and the walk can
/// stop. `jobs` is consumed lazily and only up to that boundary: with the
/// engine maintaining `W(l)` incrementally, a decision touches
/// `O(prefix)` jobs instead of `O(alive)`.
///
/// The emitted prefix is **bit-identical** to the corresponding prefix of the
/// full walk (same fractional shares, same largest-remainder rounding, same
/// integer sum `M`): the truncated tail has zero fractional share, is never
/// eligible for a rounding top-up (eligibility requires a positive fractional
/// share), and contributes zero to the floored-share sum, so dropping it
/// changes nothing. Callers must treat jobs without an entry as zero-share.
///
/// `total_weight` must equal the sum of **all** candidate weights (the full
/// ranked list, not just the prefix), accumulated in ranked order —
/// `jobs.iter().map(|(_, w)| w).sum()` is what the full walk folds. When the
/// weights are integer-valued `f64`s below 2^53 (every committed workload:
/// Google-trace weights are `priority + 1`), any exact accumulation — in
/// particular the engine's incremental counter — produces the same bits; for
/// general fractional weights the caller must supply the fold-order sum to
/// keep the truncation bit-identical.
///
/// Unlike the full variant, `total_machines == 0` yields an *empty* share
/// list (the full walk emits one all-zero entry per job); no scheduler
/// distinguishes the two, as an absent entry already means "no machines".
///
/// # Panics
/// Panics if `epsilon` is not in `(0, 1]` or a *consumed* weight is not
/// positive (weights past the truncation boundary are never inspected).
pub fn epsilon_fraction_shares_prefix_into(
    jobs: impl IntoIterator<Item = (JobId, f64)>,
    total_weight: f64,
    total_machines: usize,
    epsilon: f64,
    shares: &mut Vec<MachineShare>,
    scratch: &mut Vec<(f64, usize)>,
) {
    assert!(
        epsilon > 0.0 && epsilon <= 1.0,
        "epsilon must be in (0, 1], got {epsilon}"
    );
    shares.clear();
    if total_machines == 0 {
        return;
    }

    let m = total_machines as f64;
    let threshold = (1.0 - epsilon) * total_weight;

    // Identical arithmetic to the full walk: W_i(l) is maintained by the
    // same repeated subtraction, so every emitted share matches bit for bit.
    let mut suffix_weight = total_weight;
    for (job, weight) in jobs {
        assert!(weight > 0.0, "job weights must be positive");
        let w_i = suffix_weight;
        if w_i < threshold {
            // Zero-share region: suffix weights only decrease from here.
            break;
        }
        let fractional = if w_i - weight >= threshold {
            weight * m / (epsilon * total_weight)
        } else {
            (w_i - threshold) * m / (epsilon * total_weight)
        };
        shares.push(MachineShare {
            job,
            fractional,
            machines: 0,
        });
        suffix_weight -= weight;
    }

    largest_remainder_round(shares, total_machines, scratch);
}

/// Rounds fractional shares to integers that sum to `total_machines`, by
/// flooring every share and then handing the remaining machines to the
/// largest fractional remainders (ties broken by position, i.e. by priority).
fn largest_remainder_round(
    shares: &mut [MachineShare],
    total_machines: usize,
    eligible: &mut Vec<(f64, usize)>,
) {
    let mut assigned = 0usize;
    // Only jobs that actually participate in the sharing (positive fractional
    // share) are eligible for a top-up; purely zero-share jobs stay at zero.
    eligible.clear();
    for (idx, share) in shares.iter_mut().enumerate() {
        let floor = share.fractional.floor() as usize;
        share.machines = floor;
        assigned += floor;
        let rem = share.fractional - floor as f64;
        if rem > 0.0 || share.fractional > 0.0 {
            eligible.push((rem, idx));
        }
    }
    let leftover = total_machines.saturating_sub(assigned);
    // Hand the leftover machines to the `leftover` largest remainders
    // (position ascending on ties). The recipients are the top-k of a total
    // order — each gets exactly +1, so their relative order is irrelevant —
    // which a selection finds in O(n) instead of a full O(n log n) sort per
    // scheduling decision. `total_cmp` keeps the order total even if a
    // remainder were ever NaN.
    let k = leftover.min(eligible.len());
    if k == 0 {
        return;
    }
    if k < eligible.len() {
        eligible.select_nth_unstable_by(k - 1, |a, b| {
            b.0.total_cmp(&a.0).then_with(|| a.1.cmp(&b.1))
        });
    }
    for &(_, idx) in &eligible[..k] {
        shares[idx].machines += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mapreduce_support::proptest::prelude::*;

    fn ids(n: usize) -> Vec<JobId> {
        (0..n as u64).map(JobId::new).collect()
    }

    #[test]
    fn epsilon_one_is_weighted_fair_sharing() {
        let jobs: Vec<(JobId, f64)> = ids(3).into_iter().zip([1.0, 2.0, 1.0]).collect();
        let shares = epsilon_fraction_shares(&jobs, 8, 1.0);
        // With ε = 1 every job participates in proportion to weight: 2, 4, 2.
        let fractional: Vec<f64> = shares.iter().map(|s| s.fractional).collect();
        assert!((fractional[0] - 2.0).abs() < 1e-9);
        assert!((fractional[1] - 4.0).abs() < 1e-9);
        assert!((fractional[2] - 2.0).abs() < 1e-9);
        let total: usize = shares.iter().map(|s| s.machines).sum();
        assert_eq!(total, 8);
    }

    #[test]
    fn small_epsilon_concentrates_on_top_priority_job() {
        let jobs: Vec<(JobId, f64)> = ids(4).into_iter().zip([1.0, 1.0, 1.0, 1.0]).collect();
        let shares = epsilon_fraction_shares(&jobs, 100, 0.25);
        // ε share of weight = 1.0 = exactly the first job's weight: the top
        // job takes everything.
        assert!((shares[0].fractional - 100.0).abs() < 1e-9);
        for s in &shares[1..] {
            assert_eq!(s.fractional, 0.0);
            assert_eq!(s.machines, 0);
        }
        assert_eq!(shares[0].machines, 100);
    }

    #[test]
    fn partial_job_straddling_the_threshold_gets_partial_share() {
        // Three unit-weight jobs, ε = 0.5 → threshold = 1.5. The top job has
        // W_1 - w_1 = 2 ≥ 1.5 → full share; the second has W_2 = 2 ≥ 1.5 but
        // W_2 - w_2 = 1 < 1.5 → partial share (2 - 1.5) = 0.5 of a weight
        // unit; the third has W_3 = 1 < 1.5 → nothing.
        let jobs: Vec<(JobId, f64)> = ids(3).into_iter().zip([1.0, 1.0, 1.0]).collect();
        let shares = epsilon_fraction_shares(&jobs, 12, 0.5);
        assert!((shares[0].fractional - 8.0).abs() < 1e-9); // 1·12/(0.5·3)
        assert!((shares[1].fractional - 4.0).abs() < 1e-9); // 0.5·12/(0.5·3)
        assert_eq!(shares[2].fractional, 0.0);
        let total: usize = shares.iter().map(|s| s.machines).sum();
        assert_eq!(total, 12);
    }

    #[test]
    fn shares_sum_to_m_after_rounding() {
        let jobs: Vec<(JobId, f64)> = ids(7)
            .into_iter()
            .zip([3.0, 1.0, 2.5, 1.0, 4.0, 0.5, 2.0])
            .collect();
        for m in [1usize, 3, 10, 97] {
            for eps in [0.2, 0.5, 0.6, 0.9, 1.0] {
                let shares = epsilon_fraction_shares(&jobs, m, eps);
                let frac_sum: f64 = shares.iter().map(|s| s.fractional).sum();
                assert!(
                    (frac_sum - m as f64).abs() < 1e-6,
                    "fractional shares sum {frac_sum} != {m} at eps {eps}"
                );
                let int_sum: usize = shares.iter().map(|s| s.machines).sum();
                assert_eq!(int_sum, m, "integer shares must sum to M");
            }
        }
    }

    #[test]
    fn zero_machines_or_no_jobs() {
        let jobs: Vec<(JobId, f64)> = ids(2).into_iter().zip([1.0, 1.0]).collect();
        let shares = epsilon_fraction_shares(&jobs, 0, 0.5);
        assert!(shares.iter().all(|s| s.machines == 0));
        let empty = epsilon_fraction_shares(&[], 10, 0.5);
        assert!(empty.is_empty());
    }

    #[test]
    fn higher_priority_jobs_never_get_less_share_per_weight() {
        let jobs: Vec<(JobId, f64)> = ids(5).into_iter().zip([2.0, 1.0, 3.0, 1.0, 1.0]).collect();
        let shares = epsilon_fraction_shares(&jobs, 40, 0.6);
        let per_weight: Vec<f64> = shares
            .iter()
            .zip(&jobs)
            .map(|(s, (_, w))| s.fractional / w)
            .collect();
        for pair in per_weight.windows(2) {
            assert!(
                pair[0] + 1e-9 >= pair[1],
                "share per weight must be non-increasing"
            );
        }
    }

    #[test]
    #[should_panic(expected = "epsilon must be in")]
    fn zero_epsilon_rejected() {
        epsilon_fraction_shares(&[(JobId::new(0), 1.0)], 4, 0.0);
    }

    #[test]
    #[should_panic(expected = "weights must be positive")]
    fn non_positive_weight_rejected() {
        epsilon_fraction_shares(&[(JobId::new(0), 0.0)], 4, 0.5);
    }

    /// Runs the prefix walk with the fold-order total weight, the way the
    /// scheduler does.
    fn prefix_shares(jobs: &[(JobId, f64)], m: usize, eps: f64) -> Vec<MachineShare> {
        let total_weight: f64 = jobs.iter().map(|(_, w)| w).sum();
        let mut shares = Vec::new();
        let mut scratch = Vec::new();
        epsilon_fraction_shares_prefix_into(
            jobs.iter().copied(),
            total_weight,
            m,
            eps,
            &mut shares,
            &mut scratch,
        );
        shares
    }

    /// The prefix walk must be a bitwise-identical truncation of the full
    /// walk: same entries up to the truncation point, all-zero tail beyond
    /// it, same integer total.
    fn assert_prefix_matches_full(jobs: &[(JobId, f64)], m: usize, eps: f64) -> Result<(), String> {
        let full = epsilon_fraction_shares(jobs, m, eps);
        let prefix = prefix_shares(jobs, m, eps);
        prop_assert!(
            prefix.len() <= full.len(),
            "prefix ({}) longer than full ({})",
            prefix.len(),
            full.len()
        );
        for (i, (p, f)) in prefix.iter().zip(&full).enumerate() {
            prop_assert!(p.job == f.job, "job mismatch at {i}");
            prop_assert!(
                p.fractional.to_bits() == f.fractional.to_bits(),
                "fractional share not bit-identical at {i}: {} vs {}",
                p.fractional,
                f.fractional
            );
            prop_assert!(p.machines == f.machines, "integer share mismatch at {i}");
        }
        for (i, f) in full.iter().enumerate().skip(prefix.len()) {
            prop_assert!(
                f.fractional == 0.0 && f.machines == 0,
                "truncated entry {} is nonzero: fractional {}, machines {}",
                i,
                f.fractional,
                f.machines
            );
        }
        let sum: usize = prefix.iter().map(|s| s.machines).sum();
        prop_assert!(sum == m, "prefix shares sum {sum} != {m}");
        Ok(())
    }

    #[test]
    fn prefix_walk_truncates_zero_share_tail() {
        // ε = 0.25 over four unit weights: only the top job participates,
        // so the prefix stops after one entry (plus at most one straddle).
        let jobs: Vec<(JobId, f64)> = ids(4).into_iter().zip([1.0, 1.0, 1.0, 1.0]).collect();
        let prefix = prefix_shares(&jobs, 100, 0.25);
        assert!(prefix.len() <= 2, "prefix kept {} entries", prefix.len());
        assert_eq!(prefix[0].machines, 100);
        assert_prefix_matches_full(&jobs, 100, 0.25).unwrap();
    }

    #[test]
    fn prefix_walk_with_zero_machines_is_empty() {
        let jobs: Vec<(JobId, f64)> = ids(3).into_iter().zip([1.0, 2.0, 1.0]).collect();
        assert!(prefix_shares(&jobs, 0, 0.5).is_empty());
        assert!(prefix_shares(&[], 10, 0.5).is_empty());
    }

    #[test]
    fn prefix_walk_epsilon_one_keeps_every_job() {
        let jobs: Vec<(JobId, f64)> = ids(5).into_iter().zip([3.0, 1.0, 2.0, 1.0, 5.0]).collect();
        let prefix = prefix_shares(&jobs, 16, 1.0);
        assert_eq!(prefix.len(), jobs.len());
        assert_prefix_matches_full(&jobs, 16, 1.0).unwrap();
    }

    proptest! {
        /// Satellite pin: the prefix-truncated walk is interchangeable with
        /// the full walk over random ranked lists and ε ∈ (0, 1].
        #[test]
        fn prop_prefix_walk_matches_full_walk(
            weights in proptest::collection::vec(0.1f64..20.0, 1..40),
            m in 0usize..200,
            eps in 0.05f64..1.0,
        ) {
            let jobs: Vec<(JobId, f64)> = weights
                .iter()
                .enumerate()
                .map(|(i, &w)| (JobId::new(i as u64), w))
                .collect();
            if m == 0 {
                prop_assert!(prefix_shares(&jobs, 0, eps).is_empty());
            } else {
                // ε = 1.0 is the boundary case the unit test covers; sample
                // the open range here and the exact endpoint separately.
                assert_prefix_matches_full(&jobs, m, eps)?;
                assert_prefix_matches_full(&jobs, m, 1.0)?;
            }
        }

        /// Integer-valued weights are the committed-workload regime where the
        /// incremental W(l) counter is exact; pin it explicitly.
        #[test]
        fn prop_prefix_walk_matches_full_walk_integer_weights(
            weights in proptest::collection::vec(1u32..50, 1..40),
            m in 1usize..200,
            eps in 0.05f64..1.0,
        ) {
            let jobs: Vec<(JobId, f64)> = weights
                .iter()
                .enumerate()
                .map(|(i, &w)| (JobId::new(i as u64), f64::from(w)))
                .collect();
            assert_prefix_matches_full(&jobs, m, eps)?;
        }
    }

    proptest! {
        #[test]
        fn prop_shares_always_sum_to_m(
            weights in proptest::collection::vec(0.1f64..20.0, 1..30),
            m in 1usize..200,
            eps in 0.05f64..1.0,
        ) {
            let jobs: Vec<(JobId, f64)> = weights
                .iter()
                .enumerate()
                .map(|(i, &w)| (JobId::new(i as u64), w))
                .collect();
            let shares = epsilon_fraction_shares(&jobs, m, eps);
            let int_sum: usize = shares.iter().map(|s| s.machines).sum();
            prop_assert_eq!(int_sum, m);
            let frac_sum: f64 = shares.iter().map(|s| s.fractional).sum();
            prop_assert!((frac_sum - m as f64).abs() < 1e-6);
            // No share is negative and no single share exceeds M.
            for s in &shares {
                prop_assert!(s.fractional >= -1e-9);
                prop_assert!(s.machines <= m);
            }
        }
    }
}
