//! Data containers of the LMAS model.
//!
//! Figure 3 of the paper: *sets* have no defined order (the system may
//! deliver any pending record group, enabling load-balanced routing);
//! *streams* deliver records strictly in sequence. Here a container is
//! not an object that holds records but the contract on a dataflow edge:
//! [`EdgeKind::Set`](crate::EdgeKind::Set) lets the router pick any
//! replica per packet, [`EdgeKind::Stream`](crate::EdgeKind::Stream)
//! pins the order, and the records themselves travel as [`Packet`]s —
//! groups that must stay together.

pub mod packet;

pub use packet::{packetize, Packet};
