//! Correctness checks. A failed check makes the run exit non-zero with
//! `"correct": false`, instead of reporting a number.

use am_dgcnn::EvalMetrics;

/// Failed checks of one run.
#[derive(Debug, Default)]
pub struct Checks {
    failures: Vec<String>,
}

impl Checks {
    /// Record a failure described by `what` unless `ok`.
    pub fn require(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failures.push(what());
        }
    }

    /// Whether every check passed.
    pub fn passed(&self) -> bool {
        self.failures.is_empty()
    }

    /// Descriptions of the failed checks.
    pub fn failures(&self) -> &[String] {
        &self.failures
    }
}

/// Whether two answer sets are equal bit for bit (so `-0.0` differs from
/// `0.0`, and a NaN equals only the same NaN).
pub fn same_answers(served: &[Vec<f32>], fresh: &[Vec<f32>]) -> bool {
    served.len() == fresh.len()
        && served.iter().zip(fresh).all(|(a, b)| {
            a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
        })
}

/// Whether two evaluations are equal bit for bit.
pub fn same_eval(a: &EvalMetrics, b: &EvalMetrics) -> bool {
    a.auc.to_bits() == b.auc.to_bits()
        && a.ap.to_bits() == b.ap.to_bits()
        && a.accuracy.to_bits() == b.accuracy.to_bits()
}

/// Whether a macro AUC is better than chance.
pub fn above_chance(auc: f64) -> bool {
    auc > 0.5
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_flipped_bit_in_one_answer_is_rejected() {
        let fresh = vec![vec![0.25f32, 0.75], vec![0.5, 0.5]];
        assert!(same_answers(&fresh.clone(), &fresh));
        let mut wrong = fresh.clone();
        wrong[1][0] = f32::from_bits(wrong[1][0].to_bits() ^ 1);
        assert!(!same_answers(&wrong, &fresh));
        assert!(!same_answers(&fresh[..1], &fresh));
    }

    #[test]
    fn a_different_warm_evaluation_is_rejected() {
        let cold = EvalMetrics {
            auc: 0.8,
            ap: 0.6,
            accuracy: 0.7,
        };
        assert!(same_eval(&cold, &cold));
        let warm = EvalMetrics {
            auc: f64::from_bits(cold.auc.to_bits() + 1),
            ..cold
        };
        assert!(!same_eval(&cold, &warm));
    }

    #[test]
    fn chance_level_auc_is_rejected() {
        assert!(above_chance(0.51));
        assert!(!above_chance(0.5));
        assert!(!above_chance(f64::NAN));
    }

    #[test]
    fn checks_collect_failures() {
        let mut checks = Checks::default();
        checks.require(true, || "fine".into());
        assert!(checks.passed());
        checks.require(false, || "stale serves: 1".into());
        assert!(!checks.passed());
        assert_eq!(checks.failures(), ["stale serves: 1".to_string()]);
    }
}
