//! Machine-readable account of a planning decision.
//!
//! The JSON exists so experiments can assert *why* a placement looks
//! the way it does: predicted phase rates, the binding resource, how
//! many candidates were weighed and rejected, and the final
//! per-instance assignment. It is rendered on demand from a
//! [`PlanOutcome`] and the [`PlanSpec`] it was planned from — planning
//! itself formats nothing. Rendering is hand-built JSON with fixed
//! number formatting — byte-identical across same-input runs — and
//! every string (stage and node names, the bottleneck label) escaped.

use crate::model::PlanSpec;
use crate::search::PlanOutcome;
use std::fmt::{self, Display, Write as _};

/// One point of the coded-shuffle tradeoff curve: what the estimator
/// predicts for a candidate broadcast-group size `r`.
#[derive(Debug, Clone, PartialEq)]
pub struct CodedPoint {
    /// Candidate broadcast-group size.
    pub r: usize,
    /// Best predicted makespan at this `r` (ns).
    pub predicted_makespan_ns: u64,
    /// Predicted shuffle payload bytes on the wire (≈ uncoded / r).
    pub predicted_nic_bytes: u64,
    /// Extra replicated-write bytes the senders pay for this `r`.
    pub extra_disk_bytes: u64,
}

/// Escapes what is written through it as JSON string content.
struct JsonEscape<'a>(&'a mut String);

impl fmt::Write for JsonEscape<'_> {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        for c in s.chars() {
            match c {
                '"' => self.0.push_str("\\\""),
                '\\' => self.0.push_str("\\\\"),
                '\n' => self.0.push_str("\\n"),
                '\r' => self.0.push_str("\\r"),
                '\t' => self.0.push_str("\\t"),
                c if c.is_control() => write!(self.0, "\\u{:04x}", c as u32)?,
                c => self.0.push(c),
            }
        }
        Ok(())
    }
}

/// Append `v` as a quoted, escaped JSON string.
fn quoted(out: &mut String, v: impl Display) {
    out.push('"');
    let _ = write!(JsonEscape(out), "{v}");
    out.push('"');
}

/// Append one indented line per item, comma-separated.
fn lines<T>(
    out: &mut String,
    items: impl ExactSizeIterator<Item = T>,
    mut line: impl FnMut(&mut String, T),
) {
    let n = items.len();
    for (i, item) in items.enumerate() {
        out.push_str("    ");
        line(out, item);
        out.push_str(if i + 1 < n { ",\n" } else { "\n" });
    }
}

impl PlanOutcome {
    /// Render the decision as deterministic JSON. `spec` is the spec
    /// this outcome was planned from (stage names, replication and
    /// record volumes are read from it).
    pub fn render_json(&self, spec: &PlanSpec) -> String {
        let est = &self.estimate;
        let mut out = String::from("{\n");
        let makespan = est.makespan_ns as u64;
        let _ = writeln!(out, "  \"predicted_makespan_ns\": {makespan},");
        out.push_str("  \"bottleneck\": ");
        quoted(&mut out, &est.bottleneck);
        out.push_str(",\n");
        let _ = writeln!(
            out,
            "  \"candidates\": {{ \"considered\": {}, \"rejected\": {} }},",
            self.candidates_considered, self.candidates_rejected
        );
        let _ = writeln!(out, "  \"moves_applied\": {},", self.moves_applied);
        out.push_str("  \"stages\": [\n");
        lines(&mut out, spec.stages.iter().enumerate(), |out, (s, st)| {
            let rate = est.stage_rate(spec, s);
            out.push_str("{ \"name\": ");
            quoted(out, &st.name);
            let _ = write!(
                out,
                ", \"replication\": {}, \"records_per_sec\": {:.1}, \"busy_ns\": {} }}",
                st.replication,
                if rate.is_finite() { rate } else { 0.0 },
                est.stage_busy_ns[s] as u64
            );
        });
        out.push_str("  ],\n  \"stage_bindings\": [\n");
        let bindings = spec.stages.iter().zip(&est.stage_resources);
        lines(&mut out, bindings, |out, (st, res)| {
            out.push_str("{ \"name\": ");
            quoted(out, &st.name);
            let _ = write!(
                out,
                ", \"cpu_ns\": {}, \"disk_ns\": {}, \"nic_ns\": {}, \"binds\": \"{}\" }}",
                res.cpu_ns as u64,
                res.disk_ns as u64,
                res.nic_ns as u64,
                res.binds()
            );
        });
        out.push_str("  ],\n  \"coded_curve\": [\n");
        lines(&mut out, self.coded_curve.iter(), |out, p| {
            let _ = write!(
                out,
                "{{ \"r\": {}, \"predicted_makespan_ns\": {}, \
                 \"predicted_nic_bytes\": {}, \"extra_disk_bytes\": {} }}",
                p.r, p.predicted_makespan_ns, p.predicted_nic_bytes, p.extra_disk_bytes
            );
        });
        out.push_str("  ],\n");
        for (name, per_node) in [
            ("node_cpu_ns", &est.node_cpu_ns),
            ("node_disk_ns", &est.node_disk_ns),
            ("node_nic_ns", &est.node_nic_ns),
        ] {
            let _ = writeln!(out, "  \"{name}\": {{");
            lines(&mut out, per_node.iter(), |out, (node, ns)| {
                quoted(out, node);
                let _ = write!(out, ": {}", *ns as u64);
            });
            out.push_str("  },\n");
        }
        out.push_str("  \"assignments\": {\n");
        let assigned = spec.stages.iter().zip(&self.assignment);
        lines(&mut out, assigned, |out, (st, nodes)| {
            quoted(out, &st.name);
            out.push_str(": [");
            for (i, node) in nodes.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                quoted(out, node);
            }
            out.push(']');
        });
        out.push_str("  }\n}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use crate::model::{ClusterShape, PlanEdge, PlanSpec, StageSpec};
    use crate::search::plan;
    use lmas_core::cost::Work;
    use lmas_core::functor::FunctorKind;

    #[test]
    fn report_json_is_well_formed_and_stable() {
        let spec = PlanSpec {
            record_bytes: 128,
            stages: vec![
                StageSpec::new("src", 2, FunctorKind::AsuEligible { max_state_bytes: 0 })
                    .with_source(128 * 10_000)
                    .with_work(Work::moves(1), 10_000)
                    .pinned_per_asu(2),
                StageSpec::new("sink", 1, FunctorKind::HostOnly)
                    .with_work(Work::compares(4), 10_000),
            ],
            edges: vec![PlanEdge { from: 0, to: 1 }],
        };
        let shape = ClusterShape::era_2002(1, 2, 8.0);
        let out = plan(&spec, &shape).expect("plans");
        let json = out.render_json(&spec);
        for needle in [
            "\"predicted_makespan_ns\"",
            "\"bottleneck\"",
            "\"candidates\"",
            "\"stages\"",
            "\"stage_bindings\"",
            "\"binds\"",
            "\"coded_curve\"",
            "\"node_disk_ns\"",
            "\"node_nic_ns\"",
            "\"assignments\"",
            "\"src\": [\"asu0\", \"asu1\"]",
        ] {
            assert!(json.contains(needle), "missing {needle} in:\n{json}");
        }
        // Every stage carries an attribution verdict.
        assert_eq!(json.matches("\"binds\"").count(), 2);
        for res in &out.estimate.stage_resources {
            assert!(["cpu", "disk", "nic"].contains(&res.binds()));
        }
        assert_eq!(json, out.render_json(&spec));
        // Balanced braces/brackets as a cheap well-formedness check.
        let opens = json.matches(['{', '[']).count();
        let closes = json.matches(['}', ']']).count();
        assert_eq!(opens, closes, "unbalanced JSON:\n{json}");
    }

    /// A stage name with a quote, a backslash and a control character
    /// comes out escaped everywhere it is written: stage rows, binding
    /// rows, the assignment key and (as the binding sink) the
    /// `pipeline:` bottleneck label.
    #[test]
    fn stage_names_are_escaped() {
        let name = "a\"b\\c\nd\u{1}";
        let escaped = "a\\\"b\\\\c\\nd\\u0001";
        let spec = PlanSpec {
            record_bytes: 128,
            stages: vec![
                StageSpec::new(name, 1, FunctorKind::HostOnly).with_work(Work::moves(1), 1_000)
            ],
            edges: vec![],
        };
        let out = plan(&spec, &ClusterShape::era_2002(1, 1, 8.0)).expect("plans");
        let json = out.render_json(&spec);
        assert!(!json.contains(name), "raw name leaked into:\n{json}");
        let rows = format!("\"name\": \"{escaped}\"");
        assert_eq!(json.matches(&rows).count(), 2, "{json}");
        assert!(
            json.contains(&format!("\"{escaped}\": [\"host0\"]")),
            "{json}"
        );
        let label = format!("\"bottleneck\": \"pipeline:{escaped}\"");
        assert!(json.contains(&label), "{json}");
    }
}
