"""OQL: a query language for multi-leg option strategy search.

Compile SELECT/FROM/WHERE/HAVING queries over option-chain snapshots into
ranked strategy instances, backtest them over spot paths, and score query
transcripts with retrieval-style metrics.

The package re-exports nothing: each name is imported from the module that
defines it (oql.syntax, oql.catalog, oql.engine, ...), so importing the
package loads none of them.
"""
