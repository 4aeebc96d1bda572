//! External on-line information sources: a stock market and a travel
//! status board.
//!
//! These model the "financial portfolio tracking and travel status" services
//! of §3: active properties compose documents from them, and their changes
//! are the paper's fourth invalidation cause (information used by active
//! properties changes, outside Placeless control).

use parking_lot::RwLock;
use placeless_core::external::SimpleExternal;
use std::collections::BTreeMap;
use std::sync::Arc;

/// A simulated stock market exposing one [`ExternalSource`] per symbol.
#[derive(Default)]
pub struct StockMarket {
    symbols: RwLock<BTreeMap<String, Arc<SimpleExternal>>>,
}

impl StockMarket {
    /// Creates an empty market.
    pub fn new() -> Arc<Self> {
        Arc::new(Self::default())
    }

    /// Lists a symbol at an initial price (cents).
    pub fn list(&self, symbol: &str, cents: u64) -> Arc<SimpleExternal> {
        let source = SimpleExternal::new(&format!("stock:{symbol}"), format_price(cents));
        self.symbols
            .write()
            .insert(symbol.to_owned(), source.clone());
        source
    }

    /// Returns the source for a symbol.
    pub fn quote_source(&self, symbol: &str) -> Option<Arc<SimpleExternal>> {
        self.symbols.read().get(symbol).cloned()
    }

    /// Moves a symbol's price, bumping its epoch.
    pub fn set_price(&self, symbol: &str, cents: u64) {
        if let Some(source) = self.quote_source(symbol) {
            source.set(format_price(cents));
        }
    }
}

fn format_price(cents: u64) -> String {
    format!("{}.{:02}", cents / 100, cents % 100)
}

/// A travel status board (flight → status), another external source family.
#[derive(Default)]
pub struct TravelBoard {
    flights: RwLock<BTreeMap<String, Arc<SimpleExternal>>>,
}

impl TravelBoard {
    /// Creates an empty board.
    pub fn new() -> Arc<Self> {
        Arc::new(Self::default())
    }

    /// Adds a flight with an initial status.
    pub fn add_flight(&self, flight: &str, status: &str) -> Arc<SimpleExternal> {
        let source = SimpleExternal::new(&format!("flight:{flight}"), status.to_owned());
        self.flights
            .write()
            .insert(flight.to_owned(), source.clone());
        source
    }

    /// Updates a flight's status, bumping its epoch.
    pub fn update(&self, flight: &str, status: &str) {
        if let Some(source) = self.flights.read().get(flight) {
            source.set(status.to_owned());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use placeless_core::external::ExternalSource;

    #[test]
    fn list_and_quote() {
        let market = StockMarket::new();
        market.list("XRX", 4_250);
        assert_eq!(&market.quote_source("XRX").unwrap().read()[..], b"42.50");
        assert!(market.quote_source("IBM").is_none());
    }

    #[test]
    fn price_moves_bump_epochs() {
        let market = StockMarket::new();
        let source = market.list("XRX", 4_250);
        let e0 = source.epoch();
        market.set_price("XRX", 4_300);
        assert!(source.epoch() > e0);
        assert_eq!(&source.read()[..], b"43.00");
    }

    #[test]
    fn price_formatting_roundtrips() {
        assert_eq!(format_price(4_205), "42.05");
        assert_eq!(format_price(99), "0.99");
        let cents = |text: String| text.replace('.', "").parse::<u64>().unwrap();
        assert_eq!(cents(format_price(4_205)), 4_205);
    }

    #[test]
    fn travel_board_updates() {
        let board = TravelBoard::new();
        let source = board.add_flight("AA100", "on time");
        assert_eq!(&source.read()[..], b"on time");
        board.update("AA100", "delayed 45m");
        assert_eq!(&source.read()[..], b"delayed 45m");
        assert_eq!(source.epoch(), 1);
    }
}
