//! The workflow catalog: named, parameterized management programs.
//!
//! A gateway client does not ship code — it names a catalog entry and a
//! region scope, like calling a stored procedure. Every entry is a
//! declarative **spec template** (`occam-spec`): the catalog holds no
//! hand-built programs, and [`Catalog::build`] goes through
//! [`occam_spec::template_program`], which instantiates the template
//! with the submission's scope and parameters, parses it, statically
//! validates that its lowering is rollback-grammar-conformant, and
//! compiles it — all at task execution time, so a missing required
//! parameter surfaces as a normal task failure under the full runtime
//! guardrails (strict-2PL region locking, execution logging, rollback
//! suggestion, cooperative cancellation).
//!
//! Every direct-strategy workflow acquires its region with a *single*
//! `ctx.network(..)` call and holds it to commit. One acquisition per
//! task means no lock-order cycles between catalog workflows — the
//! gateway stress tests rely on this to rule out deadlock aborts.

use occam_core::Isolation;
use std::collections::BTreeMap;

pub use occam_spec::Program;

/// A validated submission: which workflow, over which region, with which
/// parameters.
#[derive(Clone, Debug)]
pub struct WorkflowSpec {
    /// Region scope as a glob over device names (e.g. `dc01.pod03.*`).
    pub scope: String,
    /// Workflow parameters by name.
    pub params: BTreeMap<String, String>,
}

impl WorkflowSpec {
    /// Builds a spec from the wire representation of parameters.
    pub fn new(scope: &str, params: &[(String, String)]) -> WorkflowSpec {
        WorkflowSpec {
            scope: scope.to_string(),
            params: params.iter().cloned().collect(),
        }
    }
}

/// One catalog row.
pub struct CatalogEntry {
    /// Stable workflow name clients submit by.
    pub name: &'static str,
    /// One-line human description (returned by LIST).
    pub description: &'static str,
    /// Accepted parameter names, for documentation. A parameter used on
    /// a `?`-prefixed template line is optional; the rest are required
    /// at execution time.
    pub params: &'static [&'static str],
    /// Whether the workflow only reads state (uses a read-intent region).
    pub read_only: bool,
    /// The isolation mode the engine submits this workflow under.
    /// Read-mostly workflows declare [`Isolation::Occ`] and run lock-free
    /// against a frozen snapshot; everything that touches devices stays
    /// pessimistic (device functions cannot be staged).
    pub isolation: Isolation,
    /// The declarative spec template this workflow compiles from.
    pub template: &'static str,
}

/// The named-workflow catalog.
pub struct Catalog {
    entries: Vec<CatalogEntry>,
}

impl Catalog {
    /// The standard management workflows, declared as spec templates
    /// (paper §2 case studies).
    pub fn standard() -> Catalog {
        Catalog {
            entries: vec![
                CatalogEntry {
                    name: "drain",
                    description: "Mark a region under maintenance and drain traffic off it",
                    params: &[],
                    read_only: false,
                    isolation: Isolation::TwoPl,
                    template: "spec drain {\n\
                               \x20 scope $scope\n\
                               \x20 ensure status under_maintenance\n\
                               }\n",
                },
                CatalogEntry {
                    name: "undrain",
                    description: "Return a drained region to active service",
                    params: &[],
                    read_only: false,
                    isolation: Isolation::TwoPl,
                    template: "spec undrain {\n\
                               \x20 scope $scope\n\
                               \x20 ensure status active\n\
                               }\n",
                },
                CatalogEntry {
                    name: "device_maintenance",
                    description: "Full maintenance pass: drain, run optics tests, undrain",
                    params: &[],
                    read_only: false,
                    isolation: Isolation::TwoPl,
                    template: "spec device_maintenance {\n\
                               \x20 scope $scope\n\
                               \x20 test optic\n\
                               \x20 ensure status active\n\
                               }\n",
                },
                CatalogEntry {
                    name: "firmware_upgrade",
                    description: "Drain a region, push firmware `version`, and undrain",
                    params: &["version"],
                    read_only: false,
                    isolation: Isolation::TwoPl,
                    template: "spec firmware_upgrade {\n\
                               \x20 scope $scope\n\
                               \x20 target firmware $version\n\
                               \x20 ensure status active\n\
                               }\n",
                },
                CatalogEntry {
                    name: "config_push",
                    description: "Generate and push configuration `generation` to a region",
                    params: &["generation"],
                    read_only: false,
                    isolation: Isolation::TwoPl,
                    template: "spec config_push {\n\
                               \x20 scope $scope\n\
                               \x20 target config $generation\n\
                               }\n",
                },
                CatalogEntry {
                    name: "planned_update",
                    description: "Diff a target config, synthesize an invariant-preserving \
                                  wave plan, and execute it wave-by-wave",
                    params: &["generation", "firmware", "waypoint"],
                    read_only: false,
                    isolation: Isolation::TwoPl,
                    template: "spec planned_update {\n\
                               \x20 scope $scope\n\
                               \x20 strategy waves\n\
                               \x20 target config $generation\n\
                               ? target firmware $firmware\n\
                               ? require waypoint $waypoint\n\
                               }\n",
                },
                CatalogEntry {
                    name: "status_audit",
                    description: "Read-only audit reporting every device not in active service",
                    params: &[],
                    read_only: true,
                    isolation: Isolation::Occ { max_retries: 3 },
                    template: "spec status_audit {\n\
                               \x20 scope $scope\n\
                               \x20 audit\n\
                               \x20 expect status active\n\
                               }\n",
                },
                CatalogEntry {
                    name: "compliance_audit",
                    description: "Strict audit: fail unless every device has `attr` = `value`",
                    params: &["attr", "value"],
                    read_only: true,
                    isolation: Isolation::Occ { max_retries: 3 },
                    template: "spec compliance_audit {\n\
                               \x20 scope $scope\n\
                               \x20 audit strict\n\
                               \x20 expect $attr = $value\n\
                               }\n",
                },
            ],
        }
    }

    /// Looks up an entry by name.
    pub fn get(&self, name: &str) -> Option<&CatalogEntry> {
        self.entries.iter().find(|e| e.name == name)
    }

    /// All entries, in catalog order.
    pub fn entries(&self) -> &[CatalogEntry] {
        &self.entries
    }

    /// Builds the program for `name` through the spec compiler, or
    /// `None` if unknown. Compilation itself (and therefore validation)
    /// happens when the program first runs.
    pub fn build(&self, name: &str, spec: WorkflowSpec) -> Option<Program> {
        self.get(name)
            .map(|e| occam_spec::template_program(e.template, spec.scope, spec.params))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use occam_netdb::attrs;

    #[test]
    fn standard_catalog_lookup() {
        let cat = Catalog::standard();
        assert_eq!(cat.entries().len(), 8);
        assert!(cat.get("firmware_upgrade").is_some());
        assert!(cat.get("planned_update").is_some());
        assert!(cat.get("compliance_audit").is_some());
        assert!(cat.get("rm -rf").is_none());
        let audit = cat.get("status_audit").unwrap();
        assert!(audit.read_only);
        assert!(!cat.get("drain").unwrap().read_only);
    }

    #[test]
    fn every_entry_is_a_valid_spec_template() {
        // Instantiate each template with dummy parameters and run it
        // through the full parse + validate pipeline: the catalog must
        // never ship a template whose lowering could violate the
        // rollback grammar.
        let cat = Catalog::standard();
        for entry in cat.entries() {
            let params: BTreeMap<String, String> = entry
                .params
                .iter()
                .map(|p| (p.to_string(), format!("v-{p}")))
                .collect();
            let src = occam_spec::instantiate(entry.template, "dc01.*", &params)
                .unwrap_or_else(|e| panic!("{}: {e}", entry.name));
            let spec =
                occam_spec::parse_spec(&src).unwrap_or_else(|e| panic!("{}: {e}", entry.name));
            assert_eq!(spec.name, entry.name);
            occam_spec::validate(&spec).unwrap_or_else(|e| panic!("{}: {e}", entry.name));
            // Entry metadata agrees with the compiled semantics.
            let compiled = occam_spec::compile(spec).unwrap();
            assert_eq!(compiled.read_only(), entry.read_only, "{}", entry.name);
            assert_eq!(compiled.isolation(), entry.isolation, "{}", entry.name);
        }
    }

    #[test]
    fn missing_required_param_fails_at_run_not_build() {
        let cat = Catalog::standard();
        let spec = WorkflowSpec::new("dc01.*", &[]);
        // Building succeeds; the error surfaces as a normal task failure.
        assert!(cat.build("firmware_upgrade", spec).is_some());
    }

    #[test]
    fn planned_update_executes_waves_and_lands_on_target_config() {
        use occam_core::{Runtime, TaskState};
        use occam_emunet::{EmuNet, EmuService, FlowClass};
        use occam_netdb::Database;
        use occam_regex::Pattern;
        use occam_topology::FatTree;
        use std::sync::Arc;

        let ft = FatTree::build(1, 4).unwrap();
        let db = Arc::new(Database::new());
        for (_, d) in ft
            .topo
            .devices()
            .filter(|(_, d)| d.role != occam_topology::Role::Host)
        {
            db.insert_device(
                &d.name,
                vec![
                    (attrs::DEVICE_STATUS.into(), attrs::STATUS_ACTIVE.into()),
                    (attrs::FIRMWARE_VERSION.into(), "fw-1.0.0".into()),
                ],
            )
            .unwrap();
        }
        let mut net = EmuNet::from_fattree(&ft);
        // Cross-pod flows pin every pod's aggs: the planner must stagger
        // the upgrade instead of draining both aggs of a pod at once.
        for pod in 0..2 {
            let src = ft.hosts[pod][0][0];
            let dst = ft.hosts[(pod + 1) % 2][1][0];
            net.add_flow(src, dst, 100.0, FlowClass::Background);
        }
        let service = Arc::new(EmuService::new(net));
        let rt = Runtime::new(Arc::clone(&db), service);

        let prog = Catalog::standard()
            .build(
                "planned_update",
                WorkflowSpec::new(
                    "dc01.pod0[01].agg*",
                    &[
                        ("generation".into(), "g7".into()),
                        ("firmware".into(), "fw-2.0.0".into()),
                    ],
                ),
            )
            .unwrap();
        let report = rt.task("planned_update").run(|ctx| prog(ctx));
        assert_eq!(report.state, TaskState::Completed, "{:?}", report.error);

        let snap = db.read_view();
        let scope = Pattern::from_glob("dc01.pod0[01].agg*").unwrap();
        let firmwares = snap.get_attr(&scope, attrs::FIRMWARE_VERSION);
        assert_eq!(firmwares.len(), 4);
        assert!(firmwares.values().all(|v| v.as_str() == Some("fw-2.0.0")));
        let gens = snap.get_attr(&scope, "CONFIG_VERSION");
        assert!(gens.values().all(|v| v.as_str() == Some("g7")));
        // Every upgraded device is back in active service.
        let statuses = snap.get_attr(&scope, attrs::DEVICE_STATUS);
        assert!(statuses
            .values()
            .all(|v| v.as_str() == Some(attrs::STATUS_ACTIVE)));
        // The plan ran through the executor, wave by wave.
        assert!(rt.obs().counter_value("update.exec.waves") >= 2);
        assert_eq!(rt.obs().counter_value("update.exec.failures"), 0);
    }

    #[test]
    fn status_audit_reports_the_non_compliant_set() {
        use occam_core::{Runtime, TaskState};
        use occam_emunet::{EmuNet, EmuService};
        use occam_netdb::{Database, WriteOp};
        use occam_obs::EventKind;
        use occam_topology::FatTree;
        use std::sync::Arc;

        let reg = occam_obs::Registry::new();
        let ft = FatTree::build(1, 4).unwrap();
        let db = Arc::new(Database::with_obs(&reg));
        for (_, d) in ft
            .topo
            .devices()
            .filter(|(_, d)| d.role != occam_topology::Role::Host)
        {
            db.insert_device(
                &d.name,
                vec![(attrs::DEVICE_STATUS.into(), attrs::STATUS_ACTIVE.into())],
            )
            .unwrap();
        }
        db.batch(&[
            WriteOp::SetDeviceAttr {
                name: "dc01.pod00.tor00".into(),
                attr: attrs::DEVICE_STATUS.into(),
                value: attrs::STATUS_DRAINED.into(),
            },
            WriteOp::SetDeviceAttr {
                name: "dc01.pod01.agg00".into(),
                attr: attrs::DEVICE_STATUS.into(),
                value: attrs::STATUS_UNDER_MAINTENANCE.into(),
            },
        ])
        .unwrap();
        let service = Arc::new(EmuService::new(EmuNet::from_fattree(&ft)));
        let rt = Runtime::with_obs(db, service, occam_sched::Policy::Ldsf, &reg);

        let prog = Catalog::standard()
            .build("status_audit", WorkflowSpec::new("dc01.*", &[]))
            .unwrap();
        let report = rt.task("status_audit").run(|ctx| prog(ctx));
        // Plain audits succeed and *report*: the exact non-compliant
        // device count lands in the counters and the event ring (the old
        // audit only sanity-checked map sizes).
        assert_eq!(report.state, TaskState::Completed, "{:?}", report.error);
        assert_eq!(rt.obs().counter_value("spec.audit.non_compliant"), 2);
        assert!(rt.obs().events().snapshot().iter().any(|e| matches!(
            &e.kind,
            EventKind::AuditNonCompliant {
                spec,
                non_compliant: 2,
                ..
            } if spec == "status_audit"
        )));

        // The strict form turns the same view into a failure.
        let prog = Catalog::standard()
            .build(
                "compliance_audit",
                WorkflowSpec::new(
                    "dc01.*",
                    &[
                        ("attr".into(), attrs::DEVICE_STATUS.into()),
                        ("value".into(), attrs::STATUS_ACTIVE.into()),
                    ],
                ),
            )
            .unwrap();
        let report = rt.task("compliance_audit").run(|ctx| prog(ctx));
        assert_eq!(report.state, TaskState::Aborted);
    }
}
