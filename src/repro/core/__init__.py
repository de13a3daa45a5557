"""The paper's contribution: DPC framework + Ex-DPC / Approx-DPC / S-Approx-DPC."""
