"""Analysis utilities: convergence histories, overhead statistics, reports."""
