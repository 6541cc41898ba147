//! The deployed assertions of the paper's evaluation, one per source file.
//!
//! Table 1 of the paper lists the assertions deployed per task:
//!
//! | Task | Assertions | Module |
//! |---|---|---|
//! | TV news | consistency over scene/identity/gender/hair | [`news`] |
//! | Video analytics | `multibox`, `flicker`, `appear` | [`multibox`], [`flicker`], [`appear`] |
//! | AVs | `agree`, `multibox` | [`agree`], [`multibox`] |
//! | ECG | 30-second consistency | [`ecg`] |
//!
//! A fifth scenario beyond the paper's four — highway multi-sensor
//! fusion (`fusion-agree`, `fusion-flicker`, module [`fusion`]) — is
//! composed from the same primitives to prove the abstraction transfers
//! to new deployment surfaces.
//!
//! Each assertion lives in its own file with `// BEGIN ASSERTION` /
//! `// END ASSERTION` markers around its core logic; the Table 2
//! experiment counts the non-blank, non-comment lines between the markers
//! (helper functions in [`helpers`] are counted separately and
//! double-counted per assertion, as the paper does).
//!
//! The crate also provides:
//!
//! * the window/sample types assertions run over ([`VideoWindow`],
//!   [`EcgWindow`]; AV assertions run on [`omg_sim::av::AvSample`]);
//! * [`weak`] — the weak-supervision rules (§4.2): flicker-gap box
//!   imputation, blip removal, duplicate suppression, LIDAR→camera box
//!   imputation, and ECG majority smoothing;
//! * [`label_check`] — the human-label validation pipeline (Appendix E);
//! * [`prepared`] — shared window preparation for the streaming engine:
//!   per-task `Prepare`rs (IoU association, LIDAR projection, segmentation,
//!   scene grouping) and `*_prepared_assertion_set` constructors whose
//!   assertions consume one artifact per window instead of re-deriving
//!   it per assertion.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod agree;
pub mod appear;
pub mod ecg;
pub mod flicker;
pub mod fusion;
pub mod helpers;
pub mod label_check;
pub mod multibox;
pub mod news;
pub mod prepared;
pub mod weak;
mod window;

pub use fusion::{
    fusion_assertion_set, fusion_prepared_assertion_set, FusionFrame, FusionPrepare, FusionWindow,
};
pub use prepared::{
    av_prepared_assertion_set, ecg_prepared_assertion_set, news_prepared_assertion_set,
    video_prepared_assertion_set, AvPrepare, EcgPrepare, NewsPrepare, VideoPrep, VideoPrepare,
};
pub use window::{AvFrame, EcgWindow, VideoFrame, VideoWindow};

use omg_core::AssertionSet;

/// Registers the three video-analytics assertions (`multibox`, `flicker`,
/// `appear`) on a fresh assertion set, in the paper's Table 1 order.
///
/// `flicker_t` is the temporal threshold `T` in seconds for the
/// consistency-generated assertions.
pub fn video_assertion_set(flicker_t: f64) -> AssertionSet<VideoWindow> {
    let mut set = AssertionSet::new();
    set.add(multibox::multibox_assertion());
    set.add(flicker::flicker_assertion(flicker_t));
    set.add(appear::appear_assertion(flicker_t));
    set
}

/// Registers the two AV assertions (`agree`, `multibox`) on a fresh
/// assertion set.
pub fn av_assertion_set() -> AssertionSet<AvFrame> {
    let mut set = AssertionSet::new();
    set.add(agree::agree_assertion());
    set.add(multibox::multibox_av_assertion());
    set
}

/// Registers the single ECG assertion on a fresh assertion set.
pub fn ecg_assertion_set() -> AssertionSet<EcgWindow> {
    let mut set = AssertionSet::new();
    set.add(ecg::ecg_assertion());
    set
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Compile-time audit for the parallel monitor runtime: every
    /// deployed window/sample type and every deployed assertion set must
    /// cross thread boundaries (`Monitor::process_batch` shares samples
    /// and assertions across scoped workers). The `Assertion` trait's
    /// `Send + Sync` supertraits enforce this for each assertion
    /// individually; these assertions pin it for the composed sets and
    /// the sample types they run over.
    #[test]
    fn deployed_types_are_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<VideoFrame>();
        assert_send_sync::<VideoWindow>();
        assert_send_sync::<AvFrame>();
        assert_send_sync::<EcgWindow>();
        assert_send_sync::<AssertionSet<VideoWindow>>();
        assert_send_sync::<AssertionSet<AvFrame>>();
        assert_send_sync::<AssertionSet<EcgWindow>>();
        // The monitor itself is Send (hooks are `FnMut + Send`), though
        // not Sync — batch workers share only its assertion set.
        fn assert_send<T: Send>() {}
        assert_send::<omg_core::Monitor<VideoWindow>>();
    }

    #[test]
    fn video_set_has_papers_three_assertions() {
        let set = video_assertion_set(0.45);
        assert_eq!(set.names(), vec!["multibox", "flicker", "appear"]);
    }

    #[test]
    fn av_set_has_papers_two_assertions() {
        let set = av_assertion_set();
        assert_eq!(set.names(), vec!["agree", "multibox"]);
    }

    #[test]
    fn ecg_set_has_one_assertion() {
        let set = ecg_assertion_set();
        assert_eq!(set.names(), vec!["ecg"]);
    }
}
