//! The scheduler's typed error taxonomy.
//!
//! Admission failures are *per-job outcomes*, not run aborts: a
//! rejected job is recorded in the run's [`SchedOutcome`] with the
//! variant that explains which limit was binding, while the other
//! tenants' jobs keep running.
//!
//! [`SchedOutcome`]: crate::run::SchedOutcome

use std::fmt;

/// Why the scheduler refused a job.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SchedError {
    /// The admission gate turned the job away: the cluster was
    /// saturated and the tenant's queue was already full.
    AdmissionRejected {
        /// Submitting tenant.
        tenant: usize,
        /// The rejected job id.
        job: usize,
        /// Jobs already waiting in the tenant's queue.
        queued: usize,
        /// The tenant's queue bound.
        cap: usize,
    },
    /// The tenant was at its in-flight quota and had no queue room to
    /// wait for a slot.
    QuotaExceeded {
        /// Submitting tenant.
        tenant: usize,
        /// The tenant's in-flight quota.
        limit: usize,
    },
}

impl fmt::Display for SchedError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SchedError::AdmissionRejected {
                tenant,
                job,
                queued,
                cap,
            } => write!(
                f,
                "admission rejected job {job} of tenant {tenant}: \
                 queue full ({queued}/{cap})"
            ),
            SchedError::QuotaExceeded { tenant, limit } => write!(
                f,
                "tenant {tenant} at its in-flight quota ({limit}) with no queue room"
            ),
        }
    }
}

impl std::error::Error for SchedError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn admission_rejected_names_the_binding_queue() {
        let e = SchedError::AdmissionRejected {
            tenant: 2,
            job: 7,
            queued: 3,
            cap: 3,
        };
        let msg = e.to_string();
        assert!(msg.contains("job 7"), "{msg}");
        assert!(msg.contains("tenant 2"), "{msg}");
        assert!(msg.contains("3/3"), "{msg}");
        assert!(std::error::Error::source(&e).is_none());
    }

    #[test]
    fn quota_exceeded_names_the_limit() {
        let e = SchedError::QuotaExceeded { tenant: 1, limit: 4 };
        let msg = e.to_string();
        assert!(msg.contains("tenant 1"), "{msg}");
        assert!(msg.contains("quota (4)"), "{msg}");
    }
}
