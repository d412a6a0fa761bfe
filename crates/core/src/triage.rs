//! The triage database (paper §1).
//!
//! > "If we classify a benign data race as potentially harmful, then we end
//! > up using precious developer's time. But once those races are manually
//! > identified as benign, they are marked as benign to prevent them from
//! > being classified as potentially harmful in the future analysis."
//!
//! [`TriageDb`] persists manual verdicts keyed by static race identity and
//! splits a classification into the developer's work queue: new potentially
//! harmful races to triage, races suppressed by earlier triage, and known
//! bugs that are still present.

use std::collections::BTreeMap;
use std::fmt;
use std::path::Path;

use minijson::Json;

use crate::classify::{ClassificationResult, Verdict};
use crate::detect::StaticRaceId;

/// A developer's manual verdict on one race.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ManualVerdict {
    /// Examined and found benign; suppressed from future reports.
    ConfirmedBenign,
    /// Examined and confirmed a real bug; stays in reports (as a known bug)
    /// until the race stops appearing.
    ConfirmedHarmful,
}

/// One triage decision.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TriageEntry {
    pub verdict: ManualVerdict,
    /// Free-form developer note ("statistics counter, imprecision intended").
    pub note: String,
}

/// A persistent store of manual triage decisions.
///
/// # Examples
///
/// ```
/// use replay_race::triage::{ManualVerdict, TriageDb};
/// use replay_race::detect::StaticRaceId;
///
/// let mut db = TriageDb::new();
/// db.mark(StaticRaceId::new(3, 9), ManualVerdict::ConfirmedBenign, "stats counter");
/// let json = db.to_json();
/// let reloaded = TriageDb::from_json(&json)?;
/// assert_eq!(reloaded.lookup(StaticRaceId::new(9, 3)).unwrap().verdict,
///            ManualVerdict::ConfirmedBenign);
/// # Ok::<(), replay_race::triage::TriageDbError>(())
/// ```
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TriageDb {
    entries: BTreeMap<StaticRaceId, TriageEntry>,
}

impl ManualVerdict {
    fn as_json_str(&self) -> &'static str {
        match self {
            ManualVerdict::ConfirmedBenign => "ConfirmedBenign",
            ManualVerdict::ConfirmedHarmful => "ConfirmedHarmful",
        }
    }

    fn from_json_str(s: &str) -> Result<Self, String> {
        match s {
            "ConfirmedBenign" => Ok(ManualVerdict::ConfirmedBenign),
            "ConfirmedHarmful" => Ok(ManualVerdict::ConfirmedHarmful),
            other => Err(format!("unknown verdict `{other}`")),
        }
    }
}

/// Loading or saving the database failed.
#[derive(Debug)]
pub struct TriageDbError {
    pub message: String,
}

impl fmt::Display for TriageDbError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "triage db error: {}", self.message)
    }
}

impl std::error::Error for TriageDbError {}

impl TriageDb {
    /// An empty database.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a manual verdict (replacing any earlier one).
    pub fn mark(&mut self, id: StaticRaceId, verdict: ManualVerdict, note: impl Into<String>) {
        self.entries.insert(id, TriageEntry { verdict, note: note.into() });
    }

    /// The verdict for a race, if it was ever triaged.
    #[must_use]
    pub fn lookup(&self, id: StaticRaceId) -> Option<&TriageEntry> {
        self.entries.get(&id)
    }

    /// Number of triaged races.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether no race has been triaged yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Serializes the database to JSON: one record per triaged race (JSON
    /// object keys must be strings, so the map is flattened).
    #[must_use]
    pub fn to_json(&self) -> String {
        let records: Vec<Json> = self
            .entries
            .iter()
            .map(|(id, e)| {
                Json::obj(vec![
                    ("pc_lo", Json::from(id.pc_lo)),
                    ("pc_hi", Json::from(id.pc_hi)),
                    ("verdict", Json::str(e.verdict.as_json_str())),
                    ("note", Json::str(e.note.clone())),
                ])
            })
            .collect();
        Json::Arr(records).to_string_pretty()
    }

    /// Parses a database from JSON.
    ///
    /// # Errors
    ///
    /// Returns a [`TriageDbError`] on malformed input.
    pub fn from_json(json: &str) -> Result<Self, TriageDbError> {
        let doc = Json::parse(json).map_err(|e| TriageDbError { message: e.to_string() })?;
        let mut db = TriageDb::new();
        let records =
            doc.as_arr().ok_or_else(|| TriageDbError { message: "expected an array".into() })?;
        for r in records {
            let mut parse = || -> Result<(), String> {
                let pc_lo = r.field("pc_lo")?.as_usize().ok_or("pc_lo must be an integer")?;
                let pc_hi = r.field("pc_hi")?.as_usize().ok_or("pc_hi must be an integer")?;
                let verdict = ManualVerdict::from_json_str(
                    r.field("verdict")?.as_str().ok_or("verdict must be a string")?,
                )?;
                let note = r.field("note")?.as_str().ok_or("note must be a string")?;
                db.mark(StaticRaceId::new(pc_lo, pc_hi), verdict, note);
                Ok(())
            };
            parse().map_err(|message| TriageDbError { message })?;
        }
        Ok(db)
    }

    /// Loads a database from a file; a missing file yields an empty
    /// database (first run).
    ///
    /// # Errors
    ///
    /// Returns a [`TriageDbError`] on unreadable or malformed files.
    pub fn load(path: &Path) -> Result<Self, TriageDbError> {
        match std::fs::read_to_string(path) {
            Ok(text) => Self::from_json(&text),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(Self::new()),
            Err(e) => Err(TriageDbError { message: format!("{}: {e}", path.display()) }),
        }
    }

    /// Saves the database to a file.
    ///
    /// # Errors
    ///
    /// Returns a [`TriageDbError`] on io failure.
    pub fn save(&self, path: &Path) -> Result<(), TriageDbError> {
        std::fs::write(path, self.to_json())
            .map_err(|e| TriageDbError { message: format!("{}: {e}", path.display()) })
    }

    /// Splits a classification into the developer's work queue.
    #[must_use]
    pub fn queue(&self, classification: &ClassificationResult) -> TriageQueue {
        let mut queue = TriageQueue::default();
        for race in classification.races.values() {
            match (race.verdict, self.lookup(race.id).map(|e| &e.verdict)) {
                (Verdict::PotentiallyBenign, _) => queue.auto_filtered.push(race.id),
                (Verdict::PotentiallyHarmful, None) => queue.to_triage.push(race.id),
                (Verdict::PotentiallyHarmful, Some(ManualVerdict::ConfirmedBenign)) => {
                    queue.suppressed.push(race.id);
                }
                (Verdict::PotentiallyHarmful, Some(ManualVerdict::ConfirmedHarmful)) => {
                    queue.known_bugs.push(race.id);
                }
            }
        }
        queue
    }
}

/// The developer's work queue after applying the triage database.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TriageQueue {
    /// Potentially harmful and never triaged: needs attention.
    pub to_triage: Vec<StaticRaceId>,
    /// Potentially harmful but previously confirmed benign: hidden.
    pub suppressed: Vec<StaticRaceId>,
    /// Previously confirmed harmful and still present: the bug is not fixed
    /// yet (or has regressed).
    pub known_bugs: Vec<StaticRaceId>,
    /// Classified potentially benign by the tool; never shown.
    pub auto_filtered: Vec<StaticRaceId>,
}

impl TriageQueue {
    /// Total races a developer would look at this round.
    #[must_use]
    pub fn attention_needed(&self) -> usize {
        self.to_triage.len() + self.known_bugs.len()
    }
}

impl fmt::Display for TriageQueue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "triage queue: {} new, {} known bugs, {} suppressed by earlier triage, {} auto-filtered",
            self.to_triage.len(),
            self.known_bugs.len(),
            self.suppressed.len(),
            self.auto_filtered.len()
        )?;
        for id in &self.to_triage {
            writeln!(f, "  NEW       {id}")?;
        }
        for id in &self.known_bugs {
            writeln!(f, "  KNOWN BUG {id}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classify::{classify_races_with, ClassifierConfig};
    use crate::detect::{detect_races, DetectorConfig};
    use idna_replay::recorder::record;
    use idna_replay::replayer::replay;
    use tvm::isa::Reg;
    use tvm::scheduler::RunConfig;
    use tvm::ProgramBuilder;

    fn mixed_classification() -> (ClassificationResult, StaticRaceId, StaticRaceId) {
        // One benign (redundant write) + one harmful (conflicting write).
        let mut b = ProgramBuilder::new();
        b.thread("a");
        b.movi(Reg::R1, 7)
            .mark("benign_a")
            .store(Reg::R1, Reg::R15, 0x20)
            .movi(Reg::R2, 1)
            .mark("harmful_a")
            .store(Reg::R2, Reg::R15, 0x28)
            .halt();
        b.thread("b");
        b.movi(Reg::R1, 7)
            .mark("benign_b")
            .store(Reg::R1, Reg::R15, 0x20)
            .movi(Reg::R2, 2)
            .mark("harmful_b")
            .store(Reg::R2, Reg::R15, 0x28)
            .halt();
        let program: std::sync::Arc<tvm::Program> = b.build().into();
        let benign =
            StaticRaceId::new(program.mark("benign_a").unwrap(), program.mark("benign_b").unwrap());
        let harmful = StaticRaceId::new(
            program.mark("harmful_a").unwrap(),
            program.mark("harmful_b").unwrap(),
        );
        let rec = record(&program, &RunConfig::round_robin(1));
        let trace = replay(&program, &rec.log).unwrap();
        let detected = detect_races(&trace, &DetectorConfig::default());
        (
            classify_races_with(&trace, &detected, &ClassifierConfig::default(), None),
            benign,
            harmful,
        )
    }

    #[test]
    fn queue_splits_by_db_state() {
        let (classification, benign_id, harmful_id) = mixed_classification();
        let mut db = TriageDb::new();

        // First run: the harmful race needs triage; the benign one is
        // auto-filtered by the classifier.
        let q = db.queue(&classification);
        assert_eq!(q.to_triage, vec![harmful_id]);
        assert_eq!(q.auto_filtered, vec![benign_id]);
        assert!(q.suppressed.is_empty() && q.known_bugs.is_empty());
        assert_eq!(q.attention_needed(), 1);

        // The developer confirms it is a real bug.
        db.mark(harmful_id, ManualVerdict::ConfirmedHarmful, "lost update on 0x28");
        let q = db.queue(&classification);
        assert_eq!(q.known_bugs, vec![harmful_id]);
        assert!(q.to_triage.is_empty());

        // Alternatively: suppressing it hides it.
        db.mark(harmful_id, ManualVerdict::ConfirmedBenign, "tolerated");
        let q = db.queue(&classification);
        assert_eq!(q.suppressed, vec![harmful_id]);
        assert_eq!(q.attention_needed(), 0);
    }

    #[test]
    fn json_roundtrip_and_missing_file() {
        let mut db = TriageDb::new();
        db.mark(StaticRaceId::new(1, 2), ManualVerdict::ConfirmedBenign, "note");
        db.mark(StaticRaceId::new(5, 3), ManualVerdict::ConfirmedHarmful, "bug 1234");
        let json = db.to_json();
        let back = TriageDb::from_json(&json).unwrap();
        assert_eq!(db, back);
        assert!(TriageDb::from_json("[ nope").is_err());

        let missing = std::env::temp_dir().join("racerep_no_such_db.json");
        let _ = std::fs::remove_file(&missing);
        assert!(TriageDb::load(&missing).unwrap().is_empty());
    }

    #[test]
    fn save_and_load_file() {
        let path = std::env::temp_dir().join(format!("triage_{}.json", std::process::id()));
        let mut db = TriageDb::new();
        db.mark(StaticRaceId::new(7, 9), ManualVerdict::ConfirmedBenign, "x");
        db.save(&path).unwrap();
        let loaded = TriageDb::load(&path).unwrap();
        assert_eq!(db, loaded);
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn display_lists_actionable_races() {
        let (classification, _, harmful_id) = mixed_classification();
        let db = TriageDb::new();
        let q = db.queue(&classification);
        let text = q.to_string();
        assert!(text.contains("NEW"));
        assert!(text.contains(&harmful_id.to_string()));
    }
}
