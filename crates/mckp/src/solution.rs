//! MCKP solutions.

use serde::{Deserialize, Serialize};

/// A solution to an MCKP instance: one chosen item index per class.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Selection {
    choices: Vec<usize>,
}

impl Selection {
    /// Creates a selection from per-class item indices.
    pub fn new(choices: Vec<usize>) -> Self {
        Selection { choices }
    }

    /// The chosen item index for `class`.
    ///
    /// # Panics
    ///
    /// Panics if `class` is out of range.
    pub fn choice(&self, class: usize) -> usize {
        // analyze: allow(L3): documented precondition — `# Panics` contract
        self.choices[class]
    }

    /// All per-class choices.
    pub fn choices(&self) -> &[usize] {
        &self.choices
    }

    /// Number of classes covered by this selection.
    pub fn len(&self) -> usize {
        self.choices.len()
    }

    /// Whether the selection covers zero classes.
    pub fn is_empty(&self) -> bool {
        self.choices.is_empty()
    }

    /// Replaces the choice for one class, returning the previous value.
    ///
    /// # Panics
    ///
    /// Panics if `class` is out of range.
    pub fn set_choice(&mut self, class: usize, item: usize) -> usize {
        // analyze: allow(L3): documented precondition — `# Panics` contract
        std::mem::replace(&mut self.choices[class], item)
    }
}

impl FromIterator<usize> for Selection {
    fn from_iter<I: IntoIterator<Item = usize>>(iter: I) -> Self {
        Selection::new(iter.into_iter().collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_accessors() {
        let mut s = Selection::new(vec![0, 2, 1]);
        assert_eq!(s.len(), 3);
        assert!(!s.is_empty());
        assert_eq!(s.choice(1), 2);
        assert_eq!(s.choices(), &[0, 2, 1]);
        assert_eq!(s.set_choice(1, 4), 2);
        assert_eq!(s.choice(1), 4);
    }

    #[test]
    fn from_iterator() {
        let s: Selection = (0..3).collect();
        assert_eq!(s.choices(), &[0, 1, 2]);
    }

    #[test]
    fn empty_selection() {
        let s = Selection::new(vec![]);
        assert!(s.is_empty());
        assert_eq!(s.len(), 0);
    }
}
