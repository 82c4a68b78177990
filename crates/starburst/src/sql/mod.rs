//! SQL front end: lexer, AST, recursive-descent parser.

pub mod ast;
mod lexer;
mod parser;

pub use parser::{parse_statement, MAX_EXPR_DEPTH};
