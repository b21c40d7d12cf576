use std::fmt;

/// Errors produced by the accelerator simulator.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum AccelError {
    /// The accelerator configuration is invalid (e.g. zero convolution
    /// units).
    InvalidConfig {
        /// Human-readable description.
        context: String,
    },
    /// The network cannot be mapped onto the configured accelerator.
    UnsupportedLayer {
        /// Index of the offending layer.
        layer: usize,
        /// Human-readable description.
        context: String,
    },
    /// An error bubbled up from the model crate.
    Model(snn_model::ModelError),
    /// An error bubbled up from the tensor substrate.
    Tensor(snn_tensor::TensorError),
    /// The streaming server could not complete a request (e.g. it was shut
    /// down while inferences were still queued).
    Serving {
        /// Human-readable description.
        context: String,
    },
    /// The activation-buffer budget is too small to hold even the smallest
    /// possible tile of a layer (one output row of a convolution/pooling
    /// layer, or one lane group of a fully-connected layer, plus the input
    /// tile it needs).
    BufferBudget {
        /// Index of the layer that does not fit.
        layer: usize,
        /// Bytes the smallest tile of that layer requires.
        required_bytes: u64,
        /// The configured budget in bytes.
        budget_bytes: u64,
    },
    /// The streaming server's bounded submission queue was full and the
    /// admission policy rejected the request (see
    /// [`crate::serve::ServerOptions::queue_capacity`]).
    QueueFull {
        /// Submissions waiting in the queue when the request arrived.
        queued: usize,
        /// The configured queue capacity.
        capacity: usize,
    },
    /// The execution engine panicked while computing this inference.  The
    /// dispatcher catches the unwind at the per-request boundary, so only
    /// the poisoned submission fails — the dispatcher and the server keep
    /// running (counted in
    /// [`crate::serve::ServerStats::panics`]).
    EnginePanic {
        /// The panic payload's message, when it carried one.
        context: String,
    },
    /// The submission waited in the queue past its deadline and was shed
    /// *before* compute (see
    /// [`crate::serve::ServerOptions::max_queue_wait`] and the deadline
    /// parameter of [`crate::serve::StreamServer::submit_within`]).
    /// Shedding stale work is graceful degradation, not failure: like
    /// [`AccelError::QueueFull`] this is backpressure and clients should
    /// back off and resubmit (counted in
    /// [`crate::serve::ServerStats::deadline_sheds`]).
    DeadlineExceeded {
        /// How long the submission sat in the queue, in milliseconds.
        waited_ms: u64,
        /// The deadline it missed, in milliseconds after submission.
        deadline_ms: u64,
    },
    /// The replica engine that dequeued this submission died before
    /// serving it: its dispatcher panicked outside the per-request guard,
    /// the supervisor marked it unhealthy and settled its in-flight
    /// request with this error.  Sibling replicas keep serving (see
    /// [`crate::serve::ServerStats::healthy_replicas`]), so a
    /// resubmission is served by a healthy replica — but unlike
    /// [`AccelError::QueueFull`] this is a failure, not backpressure: the
    /// inference was admitted and then lost.
    ReplicaDown {
        /// Index of the replica that died.
        replica: usize,
        /// Human-readable description.
        context: String,
    },
}

impl AccelError {
    /// Whether this error is *load shedding* rather than failure: the
    /// request was well-formed but the server chose not to admit it right
    /// now.  Transport layers map these to typed REJECTED replies with a
    /// retry-after hint instead of error replies, and clients should back
    /// off and retry rather than give up.
    pub fn is_backpressure(&self) -> bool {
        matches!(
            self,
            AccelError::QueueFull { .. } | AccelError::DeadlineExceeded { .. }
        )
    }
}

impl fmt::Display for AccelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AccelError::InvalidConfig { context } => {
                write!(f, "invalid accelerator configuration: {context}")
            }
            AccelError::UnsupportedLayer { layer, context } => {
                write!(f, "layer {layer} cannot be mapped: {context}")
            }
            AccelError::Model(e) => write!(f, "model error: {e}"),
            AccelError::Tensor(e) => write!(f, "tensor error: {e}"),
            AccelError::Serving { context } => write!(f, "serving error: {context}"),
            AccelError::BufferBudget {
                layer,
                required_bytes,
                budget_bytes,
            } => write!(
                f,
                "layer {layer} needs at least {required_bytes} activation-buffer bytes \
                 but the budget is {budget_bytes}"
            ),
            AccelError::QueueFull { queued, capacity } => write!(
                f,
                "submission queue is full ({queued} queued, capacity {capacity})"
            ),
            AccelError::EnginePanic { context } => {
                write!(f, "execution engine panicked: {context}")
            }
            AccelError::DeadlineExceeded {
                waited_ms,
                deadline_ms,
            } => write!(
                f,
                "request shed before compute: waited {waited_ms} ms in the queue, \
                 deadline was {deadline_ms} ms"
            ),
            AccelError::ReplicaDown { replica, context } => {
                write!(f, "replica {replica} is down: {context}")
            }
        }
    }
}

impl std::error::Error for AccelError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            AccelError::Model(e) => Some(e),
            AccelError::Tensor(e) => Some(e),
            _ => None,
        }
    }
}

impl From<snn_model::ModelError> for AccelError {
    fn from(e: snn_model::ModelError) -> Self {
        AccelError::Model(e)
    }
}

impl From<snn_tensor::TensorError> for AccelError {
    fn from(e: snn_tensor::TensorError) -> Self {
        AccelError::Tensor(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_descriptive() {
        let err = AccelError::InvalidConfig {
            context: "zero convolution units".into(),
        };
        assert!(err.to_string().contains("zero convolution units"));
    }

    #[test]
    fn only_shedding_errors_are_backpressure() {
        assert!(AccelError::QueueFull {
            queued: 4,
            capacity: 4
        }
        .is_backpressure());
        assert!(AccelError::DeadlineExceeded {
            waited_ms: 40,
            deadline_ms: 10
        }
        .is_backpressure());
        assert!(!AccelError::Serving {
            context: "shutting down".into()
        }
        .is_backpressure());
        assert!(!AccelError::InvalidConfig {
            context: "nope".into()
        }
        .is_backpressure());
        assert!(!AccelError::EnginePanic {
            context: "index out of bounds".into()
        }
        .is_backpressure());
        // A dead replica lost admitted work; retrying blindly without
        // rerouting would be wrong, so it is a failure, not backpressure.
        assert!(!AccelError::ReplicaDown {
            replica: 1,
            context: "dispatcher died".into()
        }
        .is_backpressure());
    }

    #[test]
    fn panic_and_deadline_display_their_evidence() {
        let panic = AccelError::EnginePanic {
            context: "poisoned input".into(),
        };
        assert!(panic.to_string().contains("panicked"));
        assert!(panic.to_string().contains("poisoned input"));
        let shed = AccelError::DeadlineExceeded {
            waited_ms: 120,
            deadline_ms: 50,
        };
        assert!(shed.to_string().contains("120 ms"));
        assert!(shed.to_string().contains("50 ms"));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<AccelError>();
    }
}
