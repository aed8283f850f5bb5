"""Test oracles for coxlow that rest on published theorems, not on the
package's own machinery; they import nothing from coxlow."""
