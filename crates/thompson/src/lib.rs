//! # fabric-power-thompson
//!
//! The interconnect wire lengths of the four switch fabrics in the Thompson
//! grid model the DAC 2002 paper uses (paper §3.4, §4). The paper embeds each
//! fabric in a 2-dimensional grid by hand, each vertex occupying a square of
//! grid vertices and each interconnect a path of grid edges, and reads off
//! how many grids a bit's path covers. Those counts are the wire terms of
//! Eq. 3–6; a wire of `m` grids costs `m · E_T_bit`.
//!
//! [`wirelength`] holds those closed forms. Every fabric wire length that the
//! router simulator, the Eq. 3–6 module and the paper ledger charge comes
//! from it; no embedding is built at run time. (The links between NoC
//! routers take their length from the mesh configuration.)

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod wirelength;
